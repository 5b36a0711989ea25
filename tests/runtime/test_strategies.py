"""Scheduling strategies."""

from repro.runtime import Cluster, RandomStrategy


def _run_with(strategy, seed=0):
    cluster = Cluster(seed=seed, strategy=strategy)
    node = cluster.add_node("n")
    order = []

    def worker(tag):
        def body():
            for _ in range(3):
                order.append(tag)
                node.shared_var(f"v{tag}").set(tag)

        return body

    node.spawn(worker("a"), name="a")
    node.spawn(worker("b"), name="b")
    node.spawn(worker("c"), name="c")
    cluster.run()
    return order


def test_random_strategy_seed_determinism():
    assert _run_with(RandomStrategy(5)) == _run_with(RandomStrategy(5))


def test_random_strategies_differ_across_seeds():
    runs = {tuple(_run_with(RandomStrategy(seed))) for seed in range(8)}
    assert len(runs) > 1

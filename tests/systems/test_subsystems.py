"""The healthy shuffle subsystem: word count over map outputs."""

from repro.runtime import Cluster


class TestShuffle:
    def _run_pipeline(self, seed=0):
        from repro.systems.minimr.app_master import AppMaster
        from repro.systems.minimr.shuffle import (
            MapOutputStore,
            Reducer,
            run_map_task,
        )

        cluster = Cluster(seed=seed, max_steps=30_000)
        am = AppMaster(cluster)
        splits = {"m1": "a b a", "m2": "b c b"}
        locations = {}
        for task, text in splits.items():
            host = cluster.add_node(f"nm-{task}")

            class _Host:
                node = host

            store = MapOutputStore(_Host)
            locations[task] = host.name

            def mapper(t=task, s=store, x=text):
                run_map_task(s, t, x)

            host.spawn(mapper, name=f"mapper-{task}")
        reducer = Reducer(cluster, "red", map_locations=locations)
        reducer.start("job-x")
        result = cluster.run()
        assert result.completed and not result.harmful
        return am.results.peek("job-x")

    def test_wordcount_correct(self):
        counts = self._run_pipeline()
        assert counts == {"a": 2, "b": 3, "c": 1}

    def test_result_stable_across_seeds(self):
        assert self._run_pipeline(1) == self._run_pipeline(4)

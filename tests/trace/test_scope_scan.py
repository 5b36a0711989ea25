"""The static communication-function scan (the WALA-analog pre-pass)."""

from repro.trace import SelectiveScope, find_comm_functions
from repro.trace.scope import find_comm_functions_in_sources


def test_rpc_call_marks_function():
    source = "def f(node):\n    return node.rpc('b').m()\n"
    assert find_comm_functions_in_sources([source]) == {"f"}


def test_socket_send_marks_function():
    source = "def g(node):\n    node.send('b', 'v', 1)\n"
    assert "g" in find_comm_functions_in_sources([source])


def test_zk_update_marks_function_only_with_zk_receiver():
    source = (
        "def zk_user(self):\n"
        "    self.zk.create('/x')\n"
        "\n"
        "def list_user(self, items):\n"
        "    items.create('x')\n"
    )
    funcs = find_comm_functions_in_sources([source])
    assert "zk_user" in funcs
    assert "list_user" not in funcs


def test_nested_functions_scanned():
    source = (
        "def outer(node):\n"
        "    def inner():\n"
        "        node.send('b', 'v', 1)\n"
        "    return inner\n"
    )
    funcs = find_comm_functions_in_sources([source])
    assert "inner" in funcs
    # inner's body runs when *inner* is called, not when outer is:
    # merely defining (and returning) a comm helper does not make the
    # enclosing function communicate.
    assert "outer" not in funcs


def test_nested_function_called_marks_outer_via_closure():
    source = (
        "def outer(node):\n"
        "    def inner():\n"
        "        node.send('b', 'v', 1)\n"
        "    inner()\n"
    )
    funcs = find_comm_functions_in_sources([source])
    assert funcs == {"inner", "outer"}


def test_nested_function_spawned_marks_outer_via_closure():
    """Handing a comm closure to a thread counts as an edge: the
    spawn-site's own accesses are part of the handoff."""
    source = (
        "def start_churn(self):\n"
        "    def churn():\n"
        "        self.node.send('b', 'v', 1)\n"
        "    self.node.spawn(churn)\n"
    )
    funcs = find_comm_functions_in_sources([source])
    assert funcs == {"churn", "start_churn"}


def test_pure_computation_not_marked():
    source = "def calc(x):\n    return x * 2\n"
    assert not find_comm_functions_in_sources([source])


def test_scan_over_real_system_modules():
    from repro.systems import workload_by_id

    workload = workload_by_id("MR-3274")
    funcs = find_comm_functions(workload.modules())
    # The container's polling loop conducts RPC.
    assert "_run_container" in funcs
    # Pure event handlers are not comm functions (they are covered by
    # the in_handler rule instead).
    assert "on_register_task" not in funcs


def test_selective_scope_uses_dynamic_extent():
    from repro.ids import CallStack, Frame
    from repro.runtime.ops import OpEvent, OpKind

    scope = SelectiveScope(comm_functions={"driver"})
    inner = Frame("repro/systems/x.py", "helper", 3)
    outer = Frame("repro/systems/x.py", "driver", 9)
    event = OpEvent(
        seq=1, kind=OpKind.MEM_READ, obj_id="v", node="n", tid=0,
        thread_name="t", segment=0,
        callstack=CallStack([inner, outer]),
    )
    # helper itself is not a comm function, but it is called from one.
    assert scope.should_trace_mem(event)


def test_helper_indirection_marks_caller():
    """Call-graph closure: a function communicating only through a
    helper (the retry-proxy pattern) is still a comm function."""
    source = (
        "def _am(node):\n"
        "    return node.rpc('am')\n"
        "\n"
        "def poll(node):\n"
        "    while _am(node).get_task() is None:\n"
        "        pass\n"
        "\n"
        "def unrelated(x):\n"
        "    return x + 1\n"
    )
    funcs = find_comm_functions_in_sources([source])
    assert "_am" in funcs
    assert "poll" in funcs
    assert "unrelated" not in funcs


def test_cross_module_name_collision_stays_distinct():
    """Same-named functions in different modules are separate
    call-graph nodes: calling module A's silent ``helper`` must not
    inherit comm-ness from module B's same-named comm ``helper``."""
    module_a = (
        "def helper(x):\n"
        "    return x + 1\n"
        "\n"
        "def caller(x):\n"
        "    return helper(x)\n"
    )
    module_b = "def helper(node):\n    node.send('b', 'v', 1)\n"
    funcs = find_comm_functions_in_sources([module_a, module_b])
    # B's helper communicates; A's caller resolves to A's silent helper.
    assert "helper" in funcs
    assert "caller" not in funcs


def test_cross_module_helper_still_propagates():
    """The qualified closure keeps the legitimate cross-module case: a
    helper defined only in another module marks its callers."""
    module_a = "def caller(node):\n    return shared_rpc(node)\n"
    module_b = "def shared_rpc(node):\n    return node.rpc('b')\n"
    funcs = find_comm_functions_in_sources([module_a, module_b])
    assert funcs == {"caller", "shared_rpc"}

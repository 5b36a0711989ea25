"""Coordination service substrate (paper Section 2.1, Rule-Mpush).

A mini ZooKeeper: a dedicated *untraced* service node holds a tree of
znodes (data, version, optional ephemeral owner) and serves create /
delete / set / get / exists / children RPCs.  Clients can attach watches;
when a watched znode changes, the service pushes a notification message to
the watching node, whose watcher event-queue runs the registered callback.

The tracing mirrors the paper exactly (Section 3.1.1): the service's
internals are invisible (the node is untraced, like ZooKeeper's own code
was uninstrumented), and instead the *client boundary* is traced —
``ZK_UPDATE`` at ``create``/``delete``/``set_data`` call sites and
``ZK_PUSHED`` at watch-callback begin, paired by ``(path, zxid)``.  This
is what makes Rule-Mpush non-redundant: without it, the chain through the
service is invisible to the HB analysis (Table 9's "Push" ablation).

The service is used as substrate by mini-HBase; the mini-ZooKeeper
*system under test* (leader election, epoch handshake) is a separate
implementation in ``repro.systems.minizk``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import NodeExistsError, NoNodeError, SimFailure
from repro.runtime.ops import OpKind

WatchCallback = Callable[["WatchEvent"], None]

NODE_CREATED = "NodeCreated"
NODE_DELETED = "NodeDeleted"
NODE_DATA_CHANGED = "NodeDataChanged"
NODE_CHILDREN_CHANGED = "NodeChildrenChanged"


@dataclass
class WatchEvent:
    """What a watch callback receives."""

    path: str
    etype: str
    zxid: int
    data: Any = None


@dataclass
class _Znode:
    data: Any = None
    version: int = 0
    ephemeral_owner: Optional[str] = None


@dataclass
class _Watch:
    client: str
    watch_uid: int
    persistent: bool
    child: bool = False


class CoordinationService:
    """The service side: znode tree + watch bookkeeping + notification."""

    def __init__(self, cluster: "object", name: str = "zk") -> None:
        self.cluster = cluster
        self.node = cluster.add_node(name, traced=False)
        self._tree: Dict[str, _Znode] = {"/": _Znode()}
        self._watches: Dict[str, List[_Watch]] = {}
        self._zxid = 0
        self.node.rpc_server.register("zk_create", self._create)
        self.node.rpc_server.register("zk_delete", self._delete)
        self.node.rpc_server.register("zk_set", self._set)
        self.node.rpc_server.register("zk_get", self._get)
        self.node.rpc_server.register("zk_exists", self._exists)
        self.node.rpc_server.register("zk_children", self._children)
        self.node.rpc_server.register("zk_watch", self._add_watch)
        self.node.rpc_server.register("zk_expire", self._expire)

    # -- RPC handlers (run on the service node's handler thread) ----------

    def _next_zxid(self) -> int:
        self._zxid += 1
        return self._zxid

    def _create(
        self,
        path: str,
        data: Any = None,
        ephemeral_owner: Optional[str] = None,
    ) -> int:
        if path in self._tree:
            raise NodeExistsError(path)
        parent = _parent_path(path)
        if parent not in self._tree:
            # Create missing ancestors implicitly (kazoo's makepath
            # behaviour) — keeps system code focused on the leaves.
            self._create(parent)
        self._tree[path] = _Znode(data=data, ephemeral_owner=ephemeral_owner)
        zxid = self._next_zxid()
        self._notify(path, NODE_CREATED, zxid, data)
        self._notify_children(parent, zxid)
        return zxid

    def _delete(self, path: str) -> int:
        if path not in self._tree:
            raise NoNodeError(path)
        del self._tree[path]
        zxid = self._next_zxid()
        self._notify(path, NODE_DELETED, zxid, None)
        self._notify_children(_parent_path(path), zxid)
        return zxid

    def _set(self, path: str, data: Any) -> int:
        znode = self._tree.get(path)
        if znode is None:
            raise NoNodeError(path)
        znode.data = data
        znode.version += 1
        zxid = self._next_zxid()
        self._notify(path, NODE_DATA_CHANGED, zxid, data)
        return zxid

    def _get(self, path: str) -> Any:
        znode = self._tree.get(path)
        if znode is None:
            raise NoNodeError(path)
        return znode.data

    def _exists(self, path: str) -> bool:
        return path in self._tree

    def _children(self, path: str) -> List[str]:
        prefix = path.rstrip("/") + "/"
        return sorted(
            p for p in self._tree if p.startswith(prefix) and "/" not in p[len(prefix):]
        )

    def _add_watch(
        self, path: str, client: str, watch_uid: int, persistent: bool, child: bool
    ) -> None:
        self._watches.setdefault(path, []).append(
            _Watch(client, watch_uid, persistent, child)
        )

    def _expire(self, owner: str) -> List[str]:
        """Session expiry: drop all ephemeral znodes owned by ``owner``."""
        doomed = [
            p for p, z in self._tree.items() if z.ephemeral_owner == owner
        ]
        for path in doomed:
            del self._tree[path]
            zxid = self._next_zxid()
            self._notify(path, NODE_DELETED, zxid, None)
            self._notify_children(_parent_path(path), zxid)
        return doomed

    # -- notification ------------------------------------------------------

    def _notify(self, path: str, etype: str, zxid: int, data: Any) -> None:
        self._fire(path, path, etype, zxid, data, child=False)

    def _notify_children(self, parent: str, zxid: int) -> None:
        self._fire(parent, parent, NODE_CHILDREN_CHANGED, zxid, None, child=True)

    def _fire(
        self, watch_path: str, path: str, etype: str, zxid: int, data: Any, child: bool
    ) -> None:
        watches = self._watches.get(watch_path, [])
        remaining = []
        for watch in watches:
            if watch.child != child:
                remaining.append(watch)
                continue
            self.node.send(
                watch.client,
                "zk-notify",
                {
                    "path": path,
                    "etype": etype,
                    "zxid": zxid,
                    "data": data,
                    "watch_uid": watch.watch_uid,
                },
            )
            if watch.persistent:
                remaining.append(watch)
        self._watches[watch_path] = remaining


def _parent_path(path: str) -> str:
    parent = path.rsplit("/", 1)[0]
    return parent or "/"


class ZnodeMirror:
    """Znode accesses *are* shared-memory accesses.

    The paper's HB-4729 races are on znodes ("one thread t1 could delete
    a zknode concurrently with another thread t2 reads this zknode and
    deletes this zknode" — Section 7.2), and real HBase code mirrors
    znode state in memory.  Every client-side znode operation therefore
    also records a MEM_READ/MEM_WRITE on location ``(mirror uid, path)``,
    with last-writer tracking — which additionally lets Rule-Mpull see
    ``exists``-polling custom synchronization.
    """

    def __init__(self, cluster: "object") -> None:
        from repro.runtime.heap import SharedObject

        self._object = SharedObject(cluster, "znodes")

    def record_read(self, path: str) -> None:
        self._object._read(path)

    def record_write(self, path: str) -> None:
        self._object._write(path)


class ZkClient:
    """Client-side API; this is the traced boundary (Rule-Mpush)."""

    def __init__(self, node: "object", service_name: str = "zk") -> None:
        self.node = node
        self.cluster = node.cluster
        self.service_name = service_name
        self._callbacks: Dict[int, WatchCallback] = {}
        self._watch_queue = node.event_queue("zkwatch", consumers=1)
        self._watch_queue.register("zk-watch", self._run_callback)
        node.sockets.register("zk-notify", self._on_notify)
        self._mirror = node.cluster.znode_mirror()

    # -- update operations (record MEM_WRITE + ZK_UPDATE) -------------------

    def create(self, path: str, data: Any = None, ephemeral: bool = False) -> int:
        owner = self.node.name if ephemeral else None
        self._mirror.record_write(path)
        return self._update("create", path, "zk_create", path, data, owner)

    def delete(self, path: str) -> int:
        self._mirror.record_write(path)
        return self._update("delete", path, "zk_delete", path)

    def set_data(self, path: str, data: Any) -> int:
        self._mirror.record_write(path)
        return self._update("set_data", path, "zk_set", path, data)

    def _update(self, api: str, path: str, method: str, *args) -> int:
        """Perform an update RPC with its ZK_UPDATE record *opened before*
        the call: the service may push the notification to watchers
        before this thread is scheduled again, and the Update must
        precede every Pushed in execution order.  The pairing id (the
        zxid is only known afterwards) is filled in before the record is
        committed."""
        event = self.cluster.pre_op(
            OpKind.ZK_UPDATE, None, extra={"api": api, "path": path}
        )
        try:
            zxid = getattr(self.node.rpc(self.service_name), method)(*args)
        except SimFailure:
            if event is not None:
                event.obj_id = (path, None)  # failed update pairs nothing
                self.cluster.post_op(event)
            raise
        if event is not None:
            event.obj_id = (path, zxid)
            self.cluster.post_op(event)
        return zxid

    # -- read operations (record MEM_READ) -----------------------------------

    def get_data(self, path: str, watch: Optional[WatchCallback] = None) -> Any:
        self._mirror.record_read(path)
        data = self.node.rpc(self.service_name).zk_get(path)
        if watch is not None:
            self._register_watch(path, watch, child=False)
        return data

    def exists(self, path: str, watch: Optional[WatchCallback] = None) -> bool:
        self._mirror.record_read(path)
        result = self.node.rpc(self.service_name).zk_exists(path)
        if watch is not None:
            self._register_watch(path, watch, child=False)
        return result

    def get_children(
        self, path: str, watch: Optional[WatchCallback] = None
    ) -> List[str]:
        self._mirror.record_read(path)
        children = self.node.rpc(self.service_name).zk_children(path)
        if watch is not None:
            self._register_watch(path, watch, child=True)
        return children

    def watch(
        self, path: str, callback: WatchCallback, persistent: bool = True
    ) -> None:
        """Attach a (by default persistent) data watch on ``path``."""
        self._register_watch(path, callback, child=False, persistent=persistent)

    def watch_children(
        self, path: str, callback: WatchCallback, persistent: bool = True
    ) -> None:
        self._register_watch(path, callback, child=True, persistent=persistent)

    def expire_session(self, owner: str) -> List[str]:
        """Simulate a session expiry for ``owner`` (used by chaos threads)."""
        return self.node.rpc(self.service_name).zk_expire(owner)

    def _register_watch(
        self,
        path: str,
        callback: WatchCallback,
        child: bool,
        persistent: bool = True,
    ) -> None:
        watch_uid = self.cluster.ids.next("zk-watch")
        self._callbacks[watch_uid] = callback
        self.node.rpc(self.service_name).zk_watch(
            path, self.node.name, watch_uid, persistent, child
        )

    # -- notification delivery (record ZK_PUSHED) ---------------------------

    def _on_notify(self, payload: dict, src: str) -> None:
        """Socket handler: hand the notification to the watcher queue."""
        self._watch_queue.post("zk-watch", payload)

    def _run_callback(self, event: "object") -> None:
        payload = event.payload
        callback = self._callbacks.get(payload["watch_uid"])
        self.cluster.op(
            OpKind.ZK_PUSHED,
            (payload["path"], payload["zxid"]),
            extra={"etype": payload["etype"], "path": payload["path"]},
        )
        if callback is not None:
            callback(
                WatchEvent(
                    path=payload["path"],
                    etype=payload["etype"],
                    zxid=payload["zxid"],
                    data=payload.get("data"),
                )
            )

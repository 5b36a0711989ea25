"""The fault-soundness oracle: injected faults add no spurious HB edges.

A dropped ``Send`` must pair with no ``Recv`` (Rule-Msoc only orders a
send with deliveries that actually happened) and a duplicated send with
at most as many ``Recv``s as copies.  Shared by the runtime fault tests
and the faulted pipeline runs in ``tests/pipeline/test_fault_injection.py``.
"""

from dataclasses import dataclass, field
from typing import List

from repro.runtime import OpKind


@dataclass
class SoundnessReport:
    """Outcome of the no-spurious-HB-edge invariant check on one trace."""

    violations: List[str] = field(default_factory=list)
    dropped_sends: int = 0
    duplicated_sends: int = 0
    checked_sends: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_fault_soundness(trace) -> SoundnessReport:
    """Check that injected faults added no spurious Rule-Msoc material.

    * a ``Send`` the policy dropped (``extra["dropped"]``) must have **no**
      ``Recv`` with its tag — the HB analysis can then never order it
      before a delivery that did not happen;
    * a duplicated send has at most ``copies`` receives (each of which
      really happened, so each edge is sound).
    """
    report = SoundnessReport()
    recvs: dict = {}
    for record in trace:
        if record.kind is OpKind.SOCK_RECV:
            recvs.setdefault(record.obj_id, []).append(record)
    for record in trace:
        if record.kind is not OpKind.SOCK_SEND:
            continue
        report.checked_sends += 1
        tag = record.obj_id
        delivered = len(recvs.get(tag, []))
        if record.extra.get("dropped"):
            report.dropped_sends += 1
            if delivered:
                report.violations.append(
                    f"dropped send {tag} has {delivered} recv(s): "
                    "a never-delivered message must add no HB edge"
                )
            continue
        copies = record.extra.get("copies", 1)
        if copies > 1:
            report.duplicated_sends += 1
        if delivered > copies:
            report.violations.append(
                f"send {tag} delivered {copies} cop(ies) but has "
                f"{delivered} recv(s)"
            )
    return report

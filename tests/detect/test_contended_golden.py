"""A contended stream's candidates, pair count and checkpoint are pinned.

On a hot location every live access pairs with the next one, so the
detector's pair loop *is* the detection.  A small generated workload
with no private traffic and most workers racing on one key per phase
is streamed under three windows (compact after every record, a few
times per pass, never mid-pass).  The candidate pairs in order,
``pairs_examined`` and the bytes ``save_stream_checkpoint`` writes
half-way through — the file the perf probe ``probe_feed`` times, whose
candidate list is in discovery order, unsorted — are goldens, so a
change to how the pair loop or the candidate is built has to leave
every one of them where it was.
"""

import hashlib
import json

import pytest

from repro.detect.streaming import (
    StreamSession,
    iter_wal_records,
    save_stream_checkpoint,
    stream_fingerprint,
    wal_stream_tids,
)
from repro.hb.model import FULL_MODEL
from repro.workload import WorkloadSpec, generate_workload

CONTENDED = WorkloadSpec(
    preset="contended", workers=24, phases=4, local_ops=0, chain_len=2,
    racers=20,
)


@pytest.fixture(scope="module")
def contended(tmp_path_factory):
    out = tmp_path_factory.mktemp("contended")
    return generate_workload("minimr", CONTENDED, 0, str(out))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _stream(wal_dir, window, ckpt):
    """One session over the WAL, its detector saved once half-way
    through.  Returns (candidate pairs, pairs examined, checkpoint
    sha256)."""
    session = StreamSession(FULL_MODEL, window)
    detector = session.open(wal_stream_tids(wal_dir))
    records = iter_wal_records(wal_dir, session.damage, detector.close_stream)
    assert session.pump(records, limit=HALF) == HALF
    save_stream_checkpoint(
        ckpt,
        detector,
        stream_fingerprint(FULL_MODEL, window, "contended"),
        {"consumed_raw": HALF},
    )
    with open(ckpt, "rb") as fh:
        digest = _sha256(fh.read())
    session.pump(records)
    result = session.finish()
    return list(result.candidate_seq_pairs()), result.pairs_examined, digest


#: Raw records before the mid-run checkpoint (of 480).
HALF = 240

#: The candidate list is the same under every window; the checkpoint
#: is not (what has been retired by then differs).
PAIRS = (
    554,
    "9e39051e9c82f69a16e51289312fc4a86ec49107437d0eecd9327f604b190352",
    558,
)
#: window -> (pair count, sha256 of the pairs as JSON, pairs examined,
#: sha256 of the mid-run checkpoint).
GOLDEN = {
    1: PAIRS + (
        "7372ac65a4442caf08d9d3951c72c82bca7988025e9ea2fadd4393042f8aca05",
    ),
    64: PAIRS + (
        "1a955b58df5ad741da757d5022753437e2a3f4bc3b8b8551ecef1da250c5d4ad",
    ),
    8192: PAIRS + (
        "add23dadcf457d70c58a64cc7763856ac7b4156982b433c48dca2bdd468bbd43",
    ),
}


@pytest.mark.parametrize("window", sorted(GOLDEN))
def test_contended_stream_matches_goldens(contended, tmp_path, window):
    pairs, examined, digest = _stream(
        contended.wal_dir, window, str(tmp_path / "stream.ckpt")
    )
    assert (
        len(pairs),
        _sha256(json.dumps(pairs).encode()),
        examined,
        digest,
    ) == GOLDEN[window]

#!/bin/sh
# Byte-identity gate for the saved reports: runs
# `dcatch run <id> --detect-mode <mode> --save-reports` for the paper's
# seven benchmarks plus MR-4637-MT and MR-SPEC in each of the two
# detect modes (18 runs, about 50 s on 2 vCPUs) and checks every file
# against benchmarks/report-digests.sha256.
#
#   sh benchmarks/report_digests.sh            # run all 18 and check
#   sh benchmarks/report_digests.sh --record   # run all 18, rewrite the digests
#
# The runs are seeded and deterministic.  A change that moves a report
# on purpose re-records the digests and says so.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
digests="$root/benchmarks/report-digests.sha256"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for id in CA-1011 HB-4539 HB-4729 MR-3274 MR-4637 ZK-1144 ZK-1270 \
          MR-4637-MT MR-SPEC; do
  for mode in batch streaming; do
    PYTHONPATH="$root/src" python -m repro.cli run "$id" \
      --detect-mode "$mode" --save-reports "$out/$id.$mode.json" > /dev/null
  done
done
cd "$out"
if [ "${1:-}" = --record ]; then
  LC_ALL=C sha256sum -- *.json > "$digests"
else
  sha256sum -c --quiet "$digests"
  echo "report digests OK: $(wc -l < "$digests") files byte-identical"
fi

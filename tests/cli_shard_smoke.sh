#!/usr/bin/env bash
# End-to-end exercise of the siqsim CLI's headline guarantee: a
# 2-shard checkpointed run merges to byte-identical JSON/CSV against
# the same spec run unsharded, and a resumed run re-simulates nothing.
#
# Usage: cli_shard_smoke.sh /path/to/siqsim
set -euo pipefail

SIQSIM=${1:?usage: cli_shard_smoke.sh /path/to/siqsim}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/siqsim_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

"$SIQSIM" spec --workloads gzip,mcf --techniques baseline,noop \
    --warmup 2000 --measure 10000 --rep-divisor 40 --seeds 2 \
    --out spec.json

"$SIQSIM" run --spec spec.json --json unsharded.json --csv unsharded.csv \
    --power-csv unsharded_power.csv 2> run_unsharded.log
# the run summary reports cache hit rates, trace cache included
grep -q "caches: workloads .* traces " run_unsharded.log

"$SIQSIM" run --spec spec.json --shard 0/2 --ckpt ckpt

# status on a half-run directory: exit 3, per-shard breakdown shows
# shard 0 done and shard 1 missing
set +e
"$SIQSIM" status ckpt --shards 2 > status_partial.log
rc=$?
set -e
test "$rc" -eq 3
grep -q "checkpointed: 2/4" status_partial.log
grep -q "shard 0/2: 2/2 done" status_partial.log
grep -q "shard 1/2: 0/2 done" status_partial.log
grep -q "missing cells:" status_partial.log

"$SIQSIM" run --spec spec.json --shard 1/2 --ckpt ckpt \
    --json merged_inline.json

# status on the complete directory: exit 0; --cache reports the
# per-shard counter files published by the checkpointed runs
"$SIQSIM" status ckpt --cache > status_done.log
grep -q "checkpointed: 4/4" status_done.log
grep -q "complete" status_done.log
grep -q "cache_shard_0_of_2.json: workloads " status_done.log
grep -q "cache_shard_1_of_2.json: .* traces " status_done.log
"$SIQSIM" merge ckpt --json merged.json --csv merged.csv \
    --power-csv merged_power.csv

cmp unsharded.json merged.json
cmp unsharded.csv merged.csv
cmp unsharded_power.csv merged_power.csv
# the shard that completes the matrix emits the same canonical bytes
cmp unsharded.json merged_inline.json

# resume: delete one checkpoint, re-run the shard, expect exactly one
# cell simulated and identical merged output
rm ckpt/cells/cell_00000_*.json
"$SIQSIM" run --spec spec.json --shard 0/2 --ckpt ckpt 2> resume.log \
    --json resumed.json
grep -q "resumed 1, simulated 1" resume.log
cmp unsharded.json resumed.json

# a different spec must be rejected by the run directory
"$SIQSIM" spec --workloads gzip --techniques baseline --out other.json
if "$SIQSIM" run --spec other.json --ckpt ckpt 2> mismatch.log; then
    echo "expected spec mismatch to fail" >&2
    exit 1
fi
grep -q "does not match this spec" mismatch.log

# unknown workload names fail at spec time (exit 1, not a bare
# fatal): the error names the bad family and lists every registered
# one so the fix is in the message
set +e
"$SIQSIM" spec --workloads gzip,oltp --techniques baseline \
    2> unknown.log
rc=$?
set -e
test "$rc" -eq 1
grep -q "unknown workload family 'oltp'" unknown.log
grep -q "registered families:" unknown.log
grep -q "phased" unknown.log

# out-of-range family parameters are rejected the same way
set +e
"$SIQSIM" spec --workloads phased:duty=99 --techniques baseline \
    2> range.log
rc=$?
set -e
test "$rc" -eq 1
grep -q "duty=99 outside" range.log

# integer flags outside int are refused, not narrowed into another
# count (2^32 + 1 would wrap to 1 seed, 2^32 + 40 to divisor 40), and
# no spec is written
for flag in "--seeds 4294967297" "--seeds 2147483648" \
            "--rep-divisor 4294967336"; do
    # shellcheck disable=SC2086
    if "$SIQSIM" spec $flag --out narrowed.json 2> narrowed.log; then
        echo "expected '$flag' to be refused" >&2
        exit 1
    fi
    grep -q "out of range" narrowed.log
    test ! -e narrowed.json
done

# parameterized-family end-to-end: a spec embedding family params
# (written in non-canonical order) runs sharded and merges
# byte-identical to the unsharded run
"$SIQSIM" spec --workloads phased:duty=30:period=2000,gzip \
    --techniques baseline,noop \
    --warmup 2000 --measure 8000 --rep-divisor 40 --seeds 2 \
    --out param_spec.json
grep -q '"family":"phased","params":{"period":2000,"duty":30}' \
    param_spec.json

"$SIQSIM" run --spec param_spec.json --json param_unsharded.json
"$SIQSIM" run --spec param_spec.json --shard 0/2 --ckpt param_ckpt
"$SIQSIM" run --spec param_spec.json --shard 1/2 --ckpt param_ckpt
"$SIQSIM" merge param_ckpt --json param_merged.json
cmp param_unsharded.json param_merged.json
# cells carry the canonical workload spelling
grep -q '"benchmark":"phased:period=2000:duty=30"' param_merged.json

echo "cli_shard_smoke: OK"

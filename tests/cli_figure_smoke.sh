#!/usr/bin/env bash
# End-to-end figure path: `siqsim spec` -> `siqsim run --json` ->
# `siqsim figures`. Every figure renders from an oracle and a
# speculative export, a 2-shard checkpointed run plus `merge` renders
# the same bytes as the unsharded run, a replicated export adds its
# ci95 lines, and exports that cannot make a figure are refused.
#
# Usage: cli_figure_smoke.sh /path/to/siqsim
set -euo pipefail

SIQSIM=$(realpath "${1:?usage: cli_figure_smoke.sh /path/to/siqsim}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/siqsim_figures.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# one figure's block of a full render: title through its paper row
block() { sed -n "/^==== $1/,/^paper /p" "$2"; }

GRID=(--workloads gzip,mcf,server,phased --warmup 2000 --measure 10000)

"$SIQSIM" spec "${GRID[@]}" --out oracle_spec.json
"$SIQSIM" run --spec oracle_spec.json --json oracle.json 2> run.log
"$SIQSIM" spec "${GRID[@]}" --speculative --out spec_spec.json
"$SIQSIM" run --spec spec_spec.json --json speculative.json 2>> run.log

# every figure, each with its suite-mean and paper rows
for mode in oracle speculative; do
    "$SIQSIM" figures "$mode.json" > "$mode.out"
    test "$(grep -c '^==== ' "$mode.out")" -eq 9
    test "$(grep -c '^MEAN ' "$mode.out")" -eq 9
    test "$(grep -c '^paper ' "$mode.out")" -eq 9
done
# one figure alone is the same block as in the full render
"$SIQSIM" figures oracle.json --figure fig8 > fig8.out
block "Figure 8:" oracle.out | cmp - fig8.out
# only the speculative export squashes and fetches down wrong paths
NO_SQUASH='^MEAN  *[0-9.]*  *0\.0%  *0\.00 '
block Speculation oracle.out | grep -q "$NO_SQUASH"
if block Speculation speculative.out | grep -q "$NO_SQUASH"; then
    echo "expected squashes in the speculative export" >&2
    exit 1
fi

# sharded and merged: the same figures, byte for byte
"$SIQSIM" run --spec oracle_spec.json --shard 0/2 --ckpt ckpt 2>> run.log
"$SIQSIM" run --spec oracle_spec.json --shard 1/2 --ckpt ckpt 2>> run.log
"$SIQSIM" merge ckpt --json merged.json 2>> run.log
"$SIQSIM" figures merged.json > merged.out
cmp oracle.out merged.out

# a replicated export renders each benchmark's mean +/- ci95
"$SIQSIM" spec "${GRID[@]}" --techniques baseline,noop,abella \
    --seeds 3 --out seeds_spec.json
"$SIQSIM" run --spec seeds_spec.json --json seeds.json 2>> run.log
"$SIQSIM" figures seeds.json --figure fig6 > seeds.out
grep -q "replication (n=3 seeds per cell), mean +/- ci95:" seeds.out
test "$(grep -c ' +/- .* +/- ' seeds.out)" -eq 4
# an unreplicated export has no such lines
if grep -q "replication" oracle.out; then
    echo "expected no ci95 lines for a one-seed export" >&2
    exit 1
fi

# an export without a technique a figure needs is refused by name,
# with nothing printed
"$SIQSIM" spec "${GRID[@]}" --techniques baseline,noop \
    --out partial_spec.json
"$SIQSIM" run --spec partial_spec.json --json partial.json 2>> run.log
if "$SIQSIM" figures partial.json --figure fig6 > partial.out \
    2> partial.log; then
    echo "expected fig6 to refuse an export without abella" >&2
    exit 1
fi
grep -q "'abella'" partial.log
test ! -s partial.out
# rendering every figure refuses before printing any
if "$SIQSIM" figures partial.json > partial_all.out 2> /dev/null; then
    echo "expected the full render to refuse a partial export" >&2
    exit 1
fi
test ! -s partial_all.out

# an unknown figure id is refused, listing the ids
if "$SIQSIM" figures oracle.json --figure fig5 > unknown.out \
    2> unknown.log; then
    echo "expected an unknown figure id to be refused" >&2
    exit 1
fi
grep -q "unknown figure 'fig5'" unknown.log
test ! -s unknown.out

echo "cli_figure_smoke: OK"

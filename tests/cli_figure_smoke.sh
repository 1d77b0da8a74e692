#!/usr/bin/env bash
# End-to-end figure path: `siqsim spec` -> `siqsim run --json` -> every
# figure renderer. A 2-shard checkpointed run plus `merge` renders the
# same figure bytes as the unsharded run, and the renderers refuse
# exports that cannot make their figure.
#
# Usage: cli_figure_smoke.sh /path/to/siqsim /path/to/bench-dir
set -euo pipefail

USAGE="usage: cli_figure_smoke.sh /path/to/siqsim /path/to/bench-dir"
SIQSIM=$(realpath "${1:?$USAGE}")
BENCH=$(realpath "${2:?$USAGE}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/siqsim_figures.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

GRID=(--workloads gzip,mcf,server,phased --warmup 2000 --measure 10000)

"$SIQSIM" spec "${GRID[@]}" --out oracle_spec.json
"$SIQSIM" run --spec oracle_spec.json --json oracle.json 2> run.log
"$SIQSIM" spec "${GRID[@]}" --speculative --out spec_spec.json
"$SIQSIM" run --spec spec_spec.json --json speculative.json 2>> run.log

for fig in fig6_ipc_loss fig7_occupancy fig8_iq_power fig9_rf_power \
           fig10_ext_ipc fig11_ext_iq_power fig12_ext_rf_power; do
    "$BENCH/bench_$fig" oracle.json > "$fig.out"
    grep -q "^MEAN " "$fig.out"
done
"$BENCH/bench_mispredict_recovery" oracle.json speculative.json \
    > mispredict.out
grep -q "^MEAN " mispredict.out

# sharded and merged: the same figure, byte for byte
"$SIQSIM" run --spec oracle_spec.json --shard 0/2 --ckpt ckpt 2>> run.log
"$SIQSIM" run --spec oracle_spec.json --shard 1/2 --ckpt ckpt 2>> run.log
"$SIQSIM" merge ckpt --json merged.json 2>> run.log
"$BENCH/bench_fig8_iq_power" merged.json > fig8_merged.out
cmp fig8_iq_power.out fig8_merged.out

# an export without a technique the figure needs is refused by name
"$SIQSIM" spec "${GRID[@]}" --techniques baseline,noop \
    --out partial_spec.json
"$SIQSIM" run --spec partial_spec.json --json partial.json 2>> run.log
if "$BENCH/bench_fig6_ipc_loss" partial.json > partial.out \
    2> partial.log; then
    echo "expected bench_fig6 to refuse an export without abella" >&2
    exit 1
fi
grep -q "'abella'" partial.log
test ! -s partial.out

# an oracle export (zero squashes) in the speculative slot is refused
if "$BENCH/bench_mispredict_recovery" oracle.json oracle.json \
    > swapped.out 2> swapped.log; then
    echo "expected an oracle export to be refused as speculative" >&2
    exit 1
fi
grep -q "no squashes" swapped.log

echo "cli_figure_smoke: OK"

#!/bin/sh
# Builds the parity grid (README, "Parity grid") in <out>, which must not
# exist yet, and prints the sha256sum listing of its synthetic corpus and
# vocab (data/), then of its checkpoints, histories, reports and eval TSVs,
# each group in C-locale order, then one line per
# checkpoint with the sha256 of its tensors alone, as load_checkpoint reads
# them, in name order: the checkpoint's bytes between header and checksum.
# The commands' own output goes to stderr, so stdout is the listing alone.
#
#   parity/build.sh <out> > listing.sha256
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <out>" >&2
    exit 2
fi
export LC_ALL=C
# one BLAS thread, as bench/run.py sets: with more, a BLAS may split a matrix
# product's sums by the host's core count and change their last bits
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
root=$(cd "$(dirname "$0")/.." && pwd)
out=$1
subner() {
    PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m subner "$@" >&2
}
mkdir "$out"
subner synth --config "$root/parity/synth.cfg" --out "$out/data"
cp "$root/parity/grid.cfg" "$out/"
subner compare --grid "$out/grid.cfg" --out "$out/grid"
for ckpt in "$out"/grid/*.ckpt; do
    subner eval --checkpoint "$ckpt" --test "$out/data/test.conll" \
        --span-scheme flat --out "${ckpt%.ckpt}.eval.tsv"
done
cd "$out"
sha256sum data/*.conll data/vocab.txt
cd grid
sha256sum *.ckpt *.history.txt report.* *.eval.tsv
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -c '
import hashlib, sys
from subner.taggers import load_checkpoint
for path in sys.argv[1:]:
    params = load_checkpoint(path).params
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(params[name].astype("<f4", copy=False))
    print(f"{digest.hexdigest()}  {path}:tensors")
' *.ckpt

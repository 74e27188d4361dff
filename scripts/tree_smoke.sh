#!/usr/bin/env bash
# Tree smoke: runs the same clustering job twice across genuinely separate
# processes — once as the paper's star (8 dpc-site leaves dialing a
# dpc-cluster -listen coordinator directly) and once as a depth-3
# aggregation tree (8 leaves -> 4 dpc-site -aggregate daemons -> 2
# -aggregate -inner daemons -> dpc-cluster -listen with -topology
# tree,branch=2) — and asserts the tree run's
# centers are byte-identical to the star's while the coordinator's
# physical root inbox shrank. The per-level byte attribution must show all
# three link tiers. CI runs this as the tree-smoke job; it also runs
# locally: ./scripts/tree_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

SITES=8
BRANCH=2
RUNFLAGS=(-sites $SITES -k 4 -t 40 -objective median -seed 5)

echo "== build"
go build -o "$workdir/bin/" ./cmd/dpc-cluster ./cmd/dpc-site ./cmd/dpc-datagen

echo "== generate + shard the workload ($SITES round-robin parts)"
"$workdir/bin/dpc-datagen" -n 800 -k 4 -dim 3 -seed 7 -out "$workdir/points.csv"
for i in $(seq 0 $((SITES - 1))); do
  awk -v s=$SITES -v i="$i" 'NR % s == i' "$workdir/points.csv" > "$workdir/part$i.csv"
done

echo "== star run ($SITES leaves dial the coordinator directly)"
"$workdir/bin/dpc-cluster" -listen 127.0.0.1:19110 "${RUNFLAGS[@]}" \
  -out "$workdir/star.csv" -report 2> "$workdir/star.log" &
coord=$!
pids+=("$coord")
for i in $(seq 0 $((SITES - 1))); do
  "$workdir/bin/dpc-site" -connect 127.0.0.1:19110 -site "$i" -in "$workdir/part$i.csv" &
  pids+=("$!")
done
wait "$coord"
grep -q "up: " "$workdir/star.log" || { echo "star run produced no report"; cat "$workdir/star.log"; exit 1; }
echo "   star done"

echo "== tree run (leaves -> 4 aggregators -> 2 inner aggregators -> coordinator)"
# The coordinator accepts the top aggregator tier; the tier plan is
# tree.Tiers(8, 2) = [4, 2], the same one -topology derives.
"$workdir/bin/dpc-cluster" -listen 127.0.0.1:19120 "${RUNFLAGS[@]}" \
  -topology "tree,branch=$BRANCH" -out "$workdir/tree.csv" -report 2> "$workdir/tree.log" &
coord=$!
pids+=("$coord")
# Top tier: 2 aggregators whose children are aggregators (-inner).
for a in 0 1; do
  "$workdir/bin/dpc-site" -aggregate -inner -connect 127.0.0.1:19120 -site "$a" \
    -children-listen "127.0.0.1:1913$a" -children $BRANCH -child-base $((a * BRANCH)) &
  pids+=("$!")
done
# Bottom tier: 4 aggregators whose children are the leaf sites.
for j in 0 1 2 3; do
  "$workdir/bin/dpc-site" -aggregate -connect "127.0.0.1:1913$((j / BRANCH))" -site "$j" \
    -children-listen "127.0.0.1:1914$j" -children $BRANCH -child-base $((j * BRANCH)) &
  pids+=("$!")
done
# Leaves: same shards, same global ids — they dial their bottom aggregator.
for i in $(seq 0 $((SITES - 1))); do
  "$workdir/bin/dpc-site" -connect "127.0.0.1:1914$((i / BRANCH))" -site "$i" -in "$workdir/part$i.csv" &
  pids+=("$!")
done
wait "$coord"
echo "   tree done"

echo "== centers byte-identical to the star"
cmp "$workdir/star.csv" "$workdir/tree.csv" \
  || { echo "MISMATCH: tree centers differ from star centers"; exit 1; }
echo "   identical"

echo "== per-level byte attribution (3 link tiers)"
grep -q "tree (branch $BRANCH):" "$workdir/tree.log" \
  || { echo "MISMATCH: tree report line missing"; cat "$workdir/tree.log"; exit 1; }
grep -q "level 2:" "$workdir/tree.log" \
  || { echo "MISMATCH: expected 3 levels in the tree report"; cat "$workdir/tree.log"; exit 1; }
echo "   all levels reported"

echo "== root inbox below the star's"
# Report line: "tree (branch 2): root inbox <X> B (star would be <Y> B)"
read -r root star <<< "$(awk '/tree \(branch/ {print $6, $11}' "$workdir/tree.log")"
[ -n "$root" ] && [ -n "$star" ] || { echo "MISMATCH: could not parse inbox bytes"; cat "$workdir/tree.log"; exit 1; }
[ "$root" -lt "$star" ] \
  || { echo "MISMATCH: root inbox $root B not below star $star B"; exit 1; }
echo "   root inbox $root B < star $star B"

echo "PASS: tree smoke"

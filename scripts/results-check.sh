#!/usr/bin/env bash
# `make results-check`: regenerate every experiment table at full size
# (`sareval -run all -csv`, about 40 s on 2 vCPUs) and compare each
# CSV with the committed results/*.csv byte for byte, with the
# wall-clock columns of internal/experiments/testdata/timing-columns.txt
# masked. Fails when a table is missing, extra, or differs in any other
# cell, so the committed tables are what the code computes.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/sareval" ./cmd/sareval
"$tmp/sareval" -run all -csv "$tmp/csv" >/dev/null

# mask <table id> <file>: print the CSV with that table's timing
# columns replaced by "*".
mask() {
	local cols
	cols=$(awk -v id="$1" '$1 == id { $1 = ""; print }' internal/experiments/testdata/timing-columns.txt)
	awk -F, -v OFS=, -v cols="$cols" '
		NR == 1 { n = split(cols, want, " "); for (i = 1; i <= NF; i++) for (j = 1; j <= n; j++) if ($i == want[j]) m[i] = 1 }
		NR > 1 { for (i in m) $i = "*" }
		{ print }' "$2"
}

status=0
for f in results/*.csv "$tmp"/csv/*.csv; do
	id=$(basename "$f" .csv)
	if [ ! -f "results/$id.csv" ] || [ ! -f "$tmp/csv/$id.csv" ]; then
		echo "results-check: $id.csv is only in $(dirname "$f")"
		status=1
	fi
done
for f in results/*.csv; do
	id=$(basename "$f" .csv)
	[ -f "$tmp/csv/$id.csv" ] || continue
	if ! cmp -s <(mask "$id" "$f") <(mask "$id" "$tmp/csv/$id.csv"); then
		echo "results-check: $id differs from results/$id.csv (timing columns masked):"
		diff <(mask "$id" "$f") <(mask "$id" "$tmp/csv/$id.csv") || true
		status=1
	fi
done
[ $status -eq 0 ] && echo "results-check: $(ls results/*.csv | wc -l) tables match results/*.csv"
exit $status

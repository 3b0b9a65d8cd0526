#!/usr/bin/env bash
# Grep gates for `make lint`: each row bans a pattern in non-exempt Go
# files. Columns are separated by " | ":
#
#   pattern (grep basic regex) | search root | exempt path regex | message
#
# A hit under the search root whose path does not match the exempt
# regex fails the gate. Add a gate by adding a row.
set -u
cd "$(dirname "$0")/.."

gates='log\.Printf | . | ^\./internal/obs/ | log.Printf outside internal/obs (use obs.Logger)
context\.Background() | internal/serve | _test\.go: | context.Background() in internal/serve (handlers must inherit the request context; background work uses Tracer.BackgroundContext)
solveWalk\|prestigeSpec\|heteroSpec\|computePopularity\|fadeByAge | . | ^\./internal/core/ | walk executor or pipeline stage call outside internal/core (rank through the scorer registry: core.RankScorer or Engine.RankWith)
sparse\.NewPool( | . | _test\.go:\|^\./internal/sparse/\|^\./internal/core/engine\.go:\|^\./internal/rank/related\.go: | worker pool handle outside the engine and the related index (scorers honour Options.Workers through SolveContext.Pool)
\.GaussSeidel() | . | _test\.go:\|^\./internal/hetnet/\|^\./internal/sparse/ | Gauss–Seidel operator built outside internal/hetnet (walk the one citation operator of the network, hetnet.SolverView.CitationTransition, or a gap view of it)
GapWeighted( | . | _test\.go:\|^\./internal/sparse/\|^\./internal/core/engine\.go: | gap-weighted citation operator outside the gap-decayed transitions of the engine (its rows are normalised over the out-edges of each citing article, so a weight that depends only on the citing article cancels; a new weighting is a new method)
\.GaugeFunc(\|\.Counter(\|\.Gauge(\|\.Histogram(\|\.HistogramFunc( | internal/serve | _test\.go:\|^internal/serve/telemetry\.go: | metric registered in internal/serve outside the declaration list (declare the quantity once in internal/serve/telemetry.go; /metrics and /stats both render it, and the README telemetry table is checked against it)'

status=0
while IFS= read -r gate; do
	pattern=${gate%% | *}; rest=${gate#* | }
	root=${rest%% | *}; rest=${rest#* | }
	exempt=${rest%% | *}; message=${rest#* | }
	bad=$(grep -rn --include='*.go' -e "$pattern" "$root" | grep -v -e "$exempt" || true)
	if [ -n "$bad" ]; then
		echo "lint: $message:"
		echo "$bad"
		status=1
	fi
done <<<"$gates"
exit $status

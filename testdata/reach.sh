#!/usr/bin/env bash
# Reach census: every function in the module that no registry workload,
# checkpoint round trip or experiment table reaches.
#
# A coverage-instrumented spinnsim runs each name `spinnsim -workloads`
# prints on one worker (and quickstart once more with -raster and
# -memprofile), then writes a storm-campaign image and resumes it for
# 5 ms on two block shards, and a cortical-mix image (the plastic one) for
# 5 ms on its recorded layout; the experiment tables run under the same
# instrumentation. Worker counts are pinned so the census does not
# depend on the host's core count. The merged
# profile's 0.0 % functions, as "file func" pairs, are compared with
# testdata/reach.allow: the census fails on an unreached function that
# the allowlist does not name, and on an allowlist entry that is now
# reached or no longer exists.
#
# Usage: bash testdata/reach.sh [-list]
#   -list  print the unreached pairs and the statement figure, check nothing
set -euo pipefail

GO=${GO:-go}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
allow=testdata/reach.allow
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/cov"

"$GO" build -cover -coverpkg=spinngo/... -o "$work/spinnsim" ./cmd/spinnsim
run() { GOCOVERDIR="$work/cov" "$work/spinnsim" "$@" >/dev/null; }
names=$(GOCOVERDIR="$work/cov" "$work/spinnsim" -workloads | awk '/^[^ ]/ {print $1}')
for name in $names; do
	run -workload "$name" -workers 1
done
run -workload quickstart -workers 1 -raster -memprofile "$work/mem.prof"
run -workload storm-campaign -workers 2 -partition blocks -snapshot "$work/storm.snap"
run -restore "$work/storm.snap" -ms 5 -workers 1
run -workload cortical-mix -workers 1 -snapshot "$work/plastic.snap"
run -restore "$work/plastic.snap" -ms 5

"$GO" test -count=1 -cover -coverpkg=spinngo/... -run 'TestE|TestAblations' \
	./internal/experiments -args -test.gocoverdir="$work/cov" >/dev/null

"$GO" tool covdata textfmt -i="$work/cov" -o "$work/cover.txt"
"$GO" tool cover -func="$work/cover.txt" >"$work/func.txt"
# Each 0.0 % function as "file Func" or "file Type.Method", the
# receiver's type read from the declaration the profile points at.
awk '$NF == "0.0%" {
	split($1, at, ":"); file = at[1]; sub(/^spinngo\//, "", file)
	line = ""
	for (i = 0; i < at[2]; i++) getline line < file
	close(file)
	name = $2
	if (match(line, /^func \([^)]*\)/)) {
		recv = substr(line, 7, RLENGTH - 7)
		sub(/^.* /, "", recv); sub(/^\*/, "", recv); sub(/\[.*$/, "", recv)
		name = recv "." name
	}
	print file, name
}' "$work/func.txt" | sort -u >"$work/unreached.txt"
total=$(awk '$1 == "total:" {print $NF}' "$work/func.txt")

if [ "${1:-}" = "-list" ]; then
	cat "$work/unreached.txt"
	echo "reach: $(wc -l <"$work/unreached.txt") functions unreached; $total of statements reached" >&2
	exit 0
fi

grep -v '^[[:space:]]*\(#\|$\)' "$allow" >"$work/entries.txt" || true
awk '{print $1, $2}' "$work/entries.txt" | sort >"$work/allowed.txt"
status=0
report() { # report TITLE LINES: print a failing list and mark the census failed
	if [ -n "$2" ]; then
		printf 'reach: %s\n%s\n' "$1" "$2" >&2
		status=1
	fi
}
report "$allow names these twice:" "$(uniq -d "$work/allowed.txt")"
report "$allow entries without a reason of a listed kind:" \
	"$(awk '$3 !~ /^(error|decode|String|descriptor|oracle|bench|harness|fault|migration):?$/' "$work/entries.txt")"
report "unreached by any document, restore or table, and not in $allow:" \
	"$(comm -23 "$work/unreached.txt" "$work/allowed.txt")"
report "$allow entries that are now reached or no longer exist:" \
	"$(comm -13 "$work/unreached.txt" "$work/allowed.txt")"
if [ $status = 0 ]; then
	echo "reach: $(wc -l <"$work/unreached.txt") functions unreached, all allowlisted; $total of statements reached"
fi
exit $status

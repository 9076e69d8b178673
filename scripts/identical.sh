#!/bin/sh
# Byte-identity check for changes that must not move any output. It
# builds ioctobench from a git ref (default HEAD) and from the working
# tree, runs the commands whose outputs define behaviour on both, and
# fails naming the first command whose exit status, stdout or -json
# report differs. The full-duration -fig all row covers the measurement
# windows the -quick goldens do not reach (full_results.txt).
#
#   scripts/identical.sh [ref]        or        make identical BASE=<ref>
#
# About 1.5 minutes on a 2-core host, so scripts/check.sh only parses it.
set -eu

cd "$(dirname "$0")/.."
ref="${1:-HEAD}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
(cd "$tmp/ref" && go build -o "$tmp/bench.ref" ./cmd/ioctobench)
go build -o "$tmp/bench.tree" ./cmd/ioctobench

# bench <side> <args...> runs one build, with the argument @report
# standing for that side's JSON report path.
bench() {
	side=$1
	shift
	for a; do
		shift
		if [ "$a" = @report ]; then
			set -- "$@" "$tmp/$side.json"
		else
			set -- "$@" "$a"
		fi
	done
	"$tmp/bench.$side" "$@"
}

# same <args...> runs one command on both builds and stops at the
# first difference.
same() {
	for side in ref tree; do
		rm -f "$tmp/$side.json"
		status=0
		bench "$side" "$@" >"$tmp/$side.out" 2>/dev/null || status=$?
		echo "$status" >"$tmp/$side.status"
	done
	for file in status out json; do
		if [ -e "$tmp/ref.$file" ] || [ -e "$tmp/tree.$file" ]; then
			if ! cmp -s "$tmp/ref.$file" "$tmp/tree.$file"; then
				case $file in
				status) what="exit status" ;;
				out) what=stdout ;;
				json) what="JSON report" ;;
				esac
				echo "identical.sh: ioctobench $* differs from $ref in its $what" >&2
				exit 1
			fi
		fi
	done
	echo "identical to $ref: ioctobench $*"
}

same -fig all -quick -json @report
same -fig all
same -scenario chaos -quick
same -fig devchaos -quick
same -fig pmd -quick
same -fuzz 8 -seed 1
same -fuzz 60 -seed 1

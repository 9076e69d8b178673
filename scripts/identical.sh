#!/bin/sh
# Byte-identity check for changes that must not move any output. It
# builds ioctobench and the examples from a git ref (default HEAD) and
# from the working tree, runs the commands whose outputs define
# behaviour on both, and fails naming the first command whose exit
# status, stdout, -json report or -trace file differs. The
# full-duration -fig all row covers the measurement windows the -quick
# goldens do not reach (full_results.txt); the traced chaos row covers
# the pipe, flow and endpoint names the tracer prints; the example rows
# cover the library facade.
#
#   scripts/identical.sh [ref]        or        make identical BASE=<ref>
#
# About 1.5 minutes on a 2-core host, so scripts/check.sh only parses it.
set -eu

cd "$(dirname "$0")/.."
ref="${1:-HEAD}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
examples="quickstart keyvalue migration storage fileserver"

mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"
# build <prog> <package> builds one command from the ref and the tree.
build() {
	(cd "$tmp/ref" && go build -o "$tmp/$1.ref" "$2")
	go build -o "$tmp/$1.tree" "$2"
}
build ioctobench ./cmd/ioctobench
for ex in $examples; do
	build "$ex" "./examples/$ex"
done

# run <prog> <side> <args...> runs one build, with the arguments
# @report and @trace standing for that side's JSON report and trace
# file paths.
run() {
	bin="$tmp/$1.$2"
	side=$2
	shift 2
	for a; do
		shift
		case $a in
		@report) set -- "$@" "$tmp/$side.json" ;;
		@trace) set -- "$@" "$tmp/$side.trace" ;;
		*) set -- "$@" "$a" ;;
		esac
	done
	"$bin" "$@"
}

# same <prog> <args...> runs one command on both builds and stops at
# the first difference.
same() {
	prog=$1
	shift
	cmd="$prog${*:+ $*}"
	for side in ref tree; do
		rm -f "$tmp/$side.json" "$tmp/$side.trace"
		status=0
		run "$prog" "$side" "$@" >"$tmp/$side.out" 2>/dev/null || status=$?
		echo "$status" >"$tmp/$side.status"
	done
	for file in status out json trace; do
		if [ -e "$tmp/ref.$file" ] || [ -e "$tmp/tree.$file" ]; then
			if ! cmp -s "$tmp/ref.$file" "$tmp/tree.$file"; then
				case $file in
				status) what="exit status" ;;
				out) what=stdout ;;
				json) what="JSON report" ;;
				trace) what="trace file" ;;
				esac
				echo "identical.sh: $cmd differs from $ref in its $what" >&2
				exit 1
			fi
		fi
	done
	echo "identical to $ref: $cmd"
}

same ioctobench -fig all -quick -json @report
same ioctobench -fig all
same ioctobench -scenario chaos -quick
same ioctobench -scenario chaos -quick -trace @trace
same ioctobench -fig devchaos -quick
same ioctobench -fig pmd -quick
same ioctobench -fuzz 8 -seed 1
same ioctobench -fuzz 60 -seed 1
for ex in $examples; do
	same "$ex"
done

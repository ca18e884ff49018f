#!/usr/bin/env bash
# Fails when a `go test -run`, `-bench` or `-fuzz` alternative in the
# Makefile or the CI workflow names no test, benchmark or fuzz target of
# its kind in the packages its command lists. `go test` passes silently
# when a pattern matches nothing, so a test that is renamed or deleted
# would otherwise drop out of its suite, and a smoke or fuzz step would
# run nothing, unnoticed.
# Run from anywhere: make check-run-patterns.
set -euo pipefail
cd "$(dirname "$0")/.."

# commands prints every command line of both files with its
# continuations joined: backslash-continued Makefile lines (with $$
# unescaped) and each folded `run: >-` block of the workflow.
commands() {
	sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta' Makefile | sed 's/\$\$/$/g'
	awk '
		/run: >-/ { fold = 1; ind = -1; line = ""; next }
		fold {
			match($0, /^ */)
			if (ind < 0) ind = RLENGTH
			if (NF && RLENGTH >= ind) { line = line " " $0; next }
			print line; fold = 0
		}
		{ print }
		END { if (fold) print line }
	' .github/workflows/ci.yml
}

status=0
while IFS= read -r line; do
	case $line in *"go test"*) ;; *) continue ;; esac
	read -ra pkgs <<<"$(grep -o '\./[^ ]*' <<<"$line" | tr '\n' ' ')"
	names=
	# Each flag matches its own kind of test function.
	for flag in run:'Test|Example|Fuzz' bench:Benchmark fuzz:Fuzz; do
		kinds=${flag#*:} flag=${flag%%:*}
		pattern=$(sed -n "s/.*-$flag '\([^']*\)'.*/\1/p" <<<"$line")
		if [ -z "$pattern" ] || [ "$pattern" = '^$' ]; then
			continue
		fi
		[ -n "$names" ] || names=$(go test -list . "${pkgs[@]}")
		candidates=$(grep -E "^($kinds)" <<<"$names" || true)
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			if ! grep -qE -- "$alt" <<<"$candidates"; then
				echo "stale -$flag pattern: '$alt' matches no test in ${pkgs[*]}"
				status=1
			fi
		done
	done
done < <(commands)
exit $status

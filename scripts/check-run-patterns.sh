#!/usr/bin/env bash
# Fails when a `go test -run` alternative in the Makefile or the CI
# workflow names no test in the packages its command lists. `go test
# -run` passes silently when a pattern matches nothing, so a test that is
# renamed or deleted would otherwise drop out of its suite unnoticed.
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
	case $line in *"go test"*"-run '"*) ;; *) continue ;; esac
	pattern=$(sed -n "s/.*-run '\([^']*\)'.*/\1/p" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	read -ra pkgs <<<"$(grep -o '\./[^ ]*' <<<"$line" | tr '\n' ' ')"
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$names"; then
			echo "stale -run pattern: '$alt' matches no test in ${pkgs[*]}"
			status=1
		fi
	done
done < <(commands)
exit $status

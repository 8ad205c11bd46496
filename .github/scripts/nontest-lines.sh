#!/bin/sh
# Non-test line count, the measure ROADMAP aim 2 puts on a change: every
# `src/` file of the workspace except the offline shims, each counted up
# to its first `#[cfg(test)]` line.
#
# Usage, from the repository root:
#   .github/scripts/nontest-lines.sh         # the working tree
#   .github/scripts/nontest-lines.sh <rev>   # the files of commit <rev>
set -eu

count() {
    find src crates -name '*.rs' -path '*/src/*' -not -path '*/shims/*' | sort |
        xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}

if [ $# -eq 0 ]; then
    count
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" src crates | tar -x -C "$tmp"
    (cd "$tmp" && count)
fi

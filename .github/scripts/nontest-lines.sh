#!/bin/sh
# Non-test line count, the measure ROADMAP aim 2 puts on a change: every
# `src/` file of the workspace except the offline shims, each counted up
# to its first `#[cfg(test)]` line.
#
# Usage, from the repository root:
#   .github/scripts/nontest-lines.sh                      # the working tree
#   .github/scripts/nontest-lines.sh <rev>                # the files of commit <rev>
#   .github/scripts/nontest-lines.sh --per-crate [<rev>]  # one `<count> <crate>` line
#                                                         # per crate (`src` is the facade)
set -eu

per_crate=false
if [ "${1:-}" = --per-crate ]; then
    per_crate=true
    shift
fi

# The non-test lines of the `src/` files under the directories given.
count() {
    find "$@" -name '*.rs' -path '*/src/*' -not -path '*/shims/*' | sort |
        xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}

report() {
    if $per_crate; then
        for dir in ./src ./crates/*; do
            [ "$dir" = ./crates/shims ] && continue
            echo "$(count "$dir") ${dir#./}"
        done
    else
        count ./src ./crates
    fi
}

if [ $# -eq 0 ]; then
    report
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$1" src crates | tar -x -C "$tmp"
    (cd "$tmp" && report)
fi

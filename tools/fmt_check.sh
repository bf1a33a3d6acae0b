#!/usr/bin/env bash
# Formatting gate for `dune build @ci`.
#
# The container has no ocamlformat, so the portable core is a small set
# of invariants every file must satisfy (no tabs, no trailing
# whitespace, no CRLF line endings, final newline present). When
# ocamlformat IS on PATH it runs too, in check mode, so installing it
# upgrades the gate without a dune change.
set -u

fail=0
tab=$(printf '\t')
cr=$(printf '\r')

while IFS= read -r f; do
  if grep -qn "$tab" "$f"; then
    echo "fmt: $f: tab character" >&2
    fail=1
  fi
  if grep -qn "$cr" "$f"; then
    echo "fmt: $f: CRLF line ending" >&2
    fail=1
  elif grep -qn '[[:space:]]$' "$f"; then
    echo "fmt: $f: trailing whitespace" >&2
    fail=1
  fi
  if [ -s "$f" ] && [ -n "$(tail -c 1 "$f")" ]; then
    echo "fmt: $f: missing final newline" >&2
    fail=1
  fi
done < <(find lib bin bench test examples -name '*.ml' -o -name '*.mli' | sort)

if command -v ocamlformat >/dev/null 2>&1; then
  while IFS= read -r f; do
    if ! ocamlformat --check "$f" 2>/dev/null; then
      echo "fmt: $f: ocamlformat --check failed" >&2
      fail=1
    fi
  done < <(find lib bin bench test examples -name '*.ml' -o -name '*.mli' | sort)
fi

if [ "$fail" -eq 0 ]; then
  echo "fmt: clean"
fi
exit "$fail"

#!/usr/bin/env bash
# Checks the compiled direct path of both software combiners: in a
# binary that instantiates
#
#   MappingCombiningTree<core::AnyRmw, NoInstrument, SpinYieldWait>
#   FlatCombiner<NoInstrument, SpinYieldWait>
#
# each one's fetch_rmw (its HardwareFirst front end's, one symbol per
# combiner) must reach its first `lock cmpxchg` (the direct CAS on the
# value word) without a `call`, and must never call thread_ordinal.
# The direct path is a load of the hot word, an inline apply of the
# mapping, the CAS and one plain store; a call between the load and the
# CAS widens the window in which another core can take the line away
# (runtime/hardware_first.hpp). Inlining is decided per translation unit,
# so the check reads the machine code rather than the source.
#
# Usage: tools/check_direct_path.sh BINARY
# Needs nm, objdump and c++filt (binutils). Exit 0 when both symbols
# pass; 1 when a symbol is missing or breaks a rule, listing the calls.
set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 BINARY" >&2
  exit 2
fi
BIN="$1"

# SpinYieldWait is PacedWait<AfterGrace::kYield>; the demangler prints
# the enumerator as its value, 1.
POLICY='krs::runtime::PacedWait<(krs::runtime::AfterGrace)1>'
FRONT='krs::runtime::HardwareFirst<krs::runtime'
TAIL='krs::core::AnyRmw, krs::analysis::NoInstrument>::fetch_rmw('
WANT=(
  "${FRONT}::MappingCombiningTree<krs::core::AnyRmw, krs::analysis::NoInstrument, ${POLICY} >, ${TAIL}"
  "${FRONT}::FlatCombiner<krs::analysis::NoInstrument, ${POLICY} >, ${TAIL}"
)

# "address size type mangled" for every defined text symbol that has a
# size, with its demangled name alongside.
SYMS="$(nm -S --defined-only "$BIN" | awk 'NF == 4 && $3 ~ /^[TtWw]$/')"
DEMANGLED="$(awk '{print $4}' <<< "$SYMS" | c++filt)"

status=0
for want in "${WANT[@]}"; do
  line="$(paste -d '\t' <(echo "$SYMS") <(echo "$DEMANGLED") |
          awk -F '\t' -v w="$want" '!hit && index($2, w) == 1 && $2 !~ /\[clone/ {print $1; hit = 1}')"
  if [[ -z "$line" ]]; then
    echo "FAIL: $BIN does not define ${want}...)" >&2
    status=1
    continue
  fi
  read -r addr size _ mangled <<< "$line"
  start=$((16#$addr))
  stop=$((start + 16#$size))
  asm="$(objdump -d --no-show-raw-insn --start-address="$start" \
           --stop-address="$stop" "$BIN" | c++filt)"
  # Rule 1: no call before the first lock cmpxchg (and there is one).
  # Rule 2: no call anywhere in the symbol targets thread_ordinal.
  verdict="$(awk '
    /\tlock cmpxchg/ { if (!cas) cas = 1; next }
    /\tcall/ {
      if (!cas) { print "call before the direct CAS:" $0; bad = 1 }
      if ($0 ~ /thread_ordinal/) { print "call to thread_ordinal:" $0; bad = 1 }
    }
    END {
      if (!cas) { print "no lock cmpxchg in the symbol"; bad = 1 }
      exit bad
    }' <<< "$asm")" || {
    echo "FAIL: ${want}...)" >&2
    echo "$verdict" | sed 's/^/  /' >&2
    status=1
    continue
  }
  echo "ok: ${want}...) reaches its CAS with no call"
done
exit "$status"

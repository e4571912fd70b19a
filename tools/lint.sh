#!/bin/sh
# Repo lint: interface discipline and known footguns.  Run from anywhere;
# exits non-zero with one line per violation.
set -u
cd "$(dirname "$0")/.."
fail=0

# 1. Every module under lib/ carries an interface.  The allowlist is the
#    deliberate exceptions: pure-constant tables and type-only modules
#    whose full signature IS the implementation.
allow="lib/pthreads/costs.ml lib/pthreads/import.ml lib/pthreads/types.ml"
for f in lib/*/*.ml; do
  case " $allow " in *" $f "*) continue ;; esac
  if [ ! -f "${f%.ml}.mli" ]; then
    echo "lint: $f has no interface (.mli) — add one or allowlist it in tools/lint.sh" >&2
    fail=1
  fi
done

# 2. No Obj.magic anywhere in the library tree.
if grep -rn --include='*.ml' --include='*.mli' 'Obj\.magic' lib/ >&2; then
  echo "lint: Obj.magic is banned in lib/" >&2
  fail=1
fi

# 3. No polymorphic comparison on TCBs, queues, queue levels or mutexes.
#    The sentinels (nil_tcb, nil_pq, nil_level, nil_mutex) close the TCB
#    graph into cycles, so structural (=)/(<>) against them loops or lies;
#    the links are defined over physical identity (==)/(!=).  Physical
#    compares and field initializers ("q_next = nil_tcb" at the start of a
#    line or after "{", ";", "let" or "and") are blanked out first; any
#    "=" or "<>" left in front of a sentinel is a structural compare, also
#    behind a module path ("Types.nil_pq") or at the end of a line.
nils='([A-Z][A-Za-z_]*\.)*(nil_tcb|nil_pq|nil_level|nil_mutex)\b'
field="([A-Z][A-Za-z_]*\.)*[a-z_][A-Za-z0-9_']*"
hits=$(grep -rnE --include='*.ml' "$nils" lib/ |
  sed -E -e "s/(==|!=)[[:space:]]*$nils/ /g" \
    -e "s/(^[^:]*:[0-9]+:|[{;]|\blet|\band)[[:space:]]*$field[[:space:]]*=[[:space:]]*$nils/\1 /g" |
  grep -E "(=|<>)[[:space:]]*$nils" | cut -d: -f1,2)
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: structural compare against a queue/owner sentinel in lib/ — use (==)/(!=)" >&2
  fail=1
fi

# 4. Direct Unix.* calls are confined to lib/vm (the backends own the
#    host interface: Real_kernel/Real_clock for the event loop and time,
#    Unix_process for process plumbing).  Everything above the backend
#    seam must go through the portable API — Pthreads.Net for sockets,
#    Vm.Real_clock for wall time — so the same code runs on both
#    backends.  Tests are exempt (they exercise host-signal forwarding
#    deliberately).  The \b..[a-z] shape avoids matching Unix_kernel etc.
hits=$(grep -rnE --include='*.ml' --include='*.mli' '\bUnix\.[a-z]' \
  lib/ bench/ examples/ bin/ | grep -v '^lib/vm/')
if [ -n "$hits" ]; then
  printf '%s\n' "$hits" >&2
  echo "lint: direct Unix.* call outside lib/vm — use Pthreads.Net / Vm.Real_clock (or add a backend op)" >&2
  fail=1
fi

exit $fail

#!/usr/bin/env sh
# hotloops.sh — where the dispatch loops landed in a binary.
# For each binary, prints the size and the address mod 64 of the
# functions the kernel tiers spend their time in: the vector dispatch
# loop, its divergence split and loop-mask narrowing, the scalar
# interpreter, and the launch's work loop. Code alignment of these alone
# moves execute-small cpu_ms_per_op by about 6%, so compare both serve
# binaries before attributing a few percent to a change. Fails if a
# symbol is missing (renamed or inlined away: update the list). Used by
# CI on the built cmd/serve, runnable locally:
#
#   go build -o /tmp/serve-old ./cmd/serve   # at the parent commit
#   go build -o /tmp/serve-new ./cmd/serve
#   scripts/hotloops.sh /tmp/serve-old /tmp/serve-new
set -eu

[ $# -ge 1 ] || { echo "usage: $0 <binary>..." >&2; exit 2; }

SYMBOLS='
repro/internal/exec/vm.(*VecFunc).Run
repro/internal/exec/vm.(*VecFunc).diverge
repro/internal/exec/vm.(*VecFunc).mask
repro/internal/exec/vm.(*VecFunc).retire
repro/internal/exec/vm.(*Func).run
repro/internal/exec.(*launch).work
'

status=0
for bin in "$@"; do
	echo "$bin"
	table=$(go tool nm -size -sort address "$bin")
	for sym in $SYMBOLS; do
		# nm prints: address size type name.
		line=$(printf '%s\n' "$table" | awk -v s="$sym" '$4 == s && ($3 == "T" || $3 == "t")')
		if [ -z "$line" ]; then
			echo "  $sym: missing" >&2
			status=1
			continue
		fi
		set -- $line
		printf '  %-48s size %6d  addr mod 64 = %2d\n' "$4" "$2" $((0x$1 % 64))
	done
done
exit $status

#!/usr/bin/env bash
# List the library functions that no shipped binary reaches.
#
# Builds the shipped binaries at -O0 with one section per function and
# data object, links them with --gc-sections, and prints every strong
# (T) ena:: symbol of the src/ static libraries that none of them keeps,
# demangled, one per line, sorted. The shipped binaries are every bench
# except bench_micro_sim (it only times simulator parts), every example,
# ena-server and ena-client. Inline functions defined in headers are
# weak symbols, so this method cannot see them.
#
#   tools/unreached_symbols.sh [BUILD_DIR]          print the names
#   tools/unreached_symbols.sh --check [BUILD_DIR]  exit 1 unless they are
#                                                   exactly the names in
#                                                   tools/unreached_symbols.keep
#
# BUILD_DIR defaults to build-reach in the source tree.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
check=0
if [[ ${1:-} == --check ]]; then
    check=1
    shift
fi
build=${1:-$root/build-reach}

bins=(ena-server ena-client)
bins+=($(sed -n 's/^ena_bench(\([a-z0-9_]*\))$/\1/p' "$root/bench/CMakeLists.txt" |
         grep -vx bench_micro_sim))
bins+=($(sed -n 's/^ena_example(\([a-z0-9_]*\))$/\1/p' "$root/examples/CMakeLists.txt"))

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
    -DCMAKE_CXX_FLAGS='-ffunction-sections -fdata-sections' \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections >/dev/null
cmake --build "$build" -j "$(nproc)" --target "${bins[@]}" >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find "$build/src" -name 'libena_*.a' -exec nm --defined-only {} + |
    awk '$2 == "T" { print $3 }' | sort -u >"$tmp/lib"
for b in "${bins[@]}"; do
    nm --defined-only "$(find "$build" -type f -name "$b" | head -n 1)"
done | awk '{ print $NF }' | sort -u >"$tmp/kept"

# A deleting destructor (D0) is only named by its class's vtable, so it
# reads as unreached even when the class is used.
comm -23 "$tmp/lib" "$tmp/kept" | sed '/D0Ev$/d' | c++filt |
    sed -n '/^ena::/p' | sort -u >"$tmp/unreached"

if ((!check)); then
    cat "$tmp/unreached"
    exit 0
fi

keep=$root/tools/unreached_symbols.keep
if grep -Ev '^(#|$)' "$keep" |
        grep -Ev '  # (oracle|seam|perfbench|item 8): [^ ]' >"$tmp/bad"; then
    echo "names in $keep without a '  # <reason>: <why>' comment:" >&2
    cat "$tmp/bad" >&2
    exit 1
fi
sed -e '/^#/d' -e '/^$/d' -e 's/  # .*//' "$keep" | sort -u >"$tmp/keep"
if ! diff "$tmp/keep" "$tmp/unreached" >"$tmp/diff"; then
    echo "unreached symbols differ from tools/unreached_symbols.keep" \
         "(> unreached and not kept: delete it or keep it with a reason;" \
         "< kept but no longer unreached: drop it from the file):" >&2
    cat "$tmp/diff" >&2
    exit 1
fi
echo "$(wc -l <"$tmp/keep") unreached symbols, each kept with a reason"

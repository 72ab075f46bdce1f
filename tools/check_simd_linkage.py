#!/usr/bin/env python3
"""Fail when a weak symbol of a SIMD kernel object holds non-baseline code.

Usage:

    python3 tools/check_simd_linkage.py BUILD_DIR

Each kernels_*.cpp.o instantiates src/align/kernels/simd_kernels.h inside
a `#pragma GCC target` region whose code all has internal linkage. A weak
(COMDAT) function is different: the linker keeps one copy of it from any
object that defines it. If the copy in a kernel object were compiled for
AVX2 or AVX-512, every caller in the program would run it, and a CPU
without that ISA would die of SIGILL.

For every kernels_*.cpp.o under BUILD_DIR the script lists the weak
function symbols (`nm`, type W), disassembles their bodies (`objdump -d`)
and fails on any instruction beyond the x86-64 baseline (SSE2): a VEX or
EVEX encoding, a ymm, zmm or opmask register, or an SSE3, SSSE3, SSE4,
POPCNT, LZCNT/TZCNT, BMI or MOVBE mnemonic. A Debug build emits every
inline function out of line, so it is the build to check. Needs binutils.
"""

import os
import re
import subprocess
import sys

# Mnemonics that x86-64 baseline lacks, matched whole with an optional
# AT&T size suffix (so SSE2's pextrw, pinsrw, pmaxub or andnps do not
# match). Anything VEX/EVEX-encoded is caught by its prefix byte instead.
NON_BASELINE = re.compile(
    r"(addsubp[sd]|h(add|sub)p[sd]|lddqu|movddup|movs[hl]dup|monitor|mwait"
    r"|fisttp(s|l|ll)?|pabs[bwd]|palignr|ph(add|sub)(w|d|sw)|pmaddubsw|pmulhrsw"
    r"|pshufb|psign[bwd]|blendv?p[sd]|dpp[sd]|extractps|insertps|movntdqa"
    r"|mpsadbw|packusdw|pblend(vb|w)|pcmpeqq|pextr[bdq]|phminposuw"
    r"|pinsr[bdq]|pmax(s[bd]|u[wd])|pmin(s[bd]|u[wd])"
    r"|pmov[sz]x(bw|bd|bq|wd|wq|dq)|pmuldq|pmulld|ptest|round[ps][sd]|crc32"
    r"|pcmp[ei]str[im]|pcmpgtq|popcnt|lzcnt|tzcnt|andn|bextr|blsi|blsmsk"
    r"|blsr|bzhi|mulx|pdep|pext|rorx|sarx|shlx|shrx|adcx|adox|movbe)"
    r"[bwlq]?")
WIDE_REGISTER = re.compile(r"%(ymm|zmm)\d+|%k[0-7]\b")
LEGACY_PREFIXES = {0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x67, 0xF0,
                   0xF2, 0xF3}
VEX_EVEX = {0xC4: "VEX", 0xC5: "VEX", 0x62: "EVEX"}


def run(cmd):
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def encoding(raw):
    """'VEX' or 'EVEX' when the instruction bytes carry that prefix. In
    64-bit mode 0xC4/0xC5/0x62 after the legacy and REX prefixes are
    always VEX/EVEX (LES, LDS and BOUND do not exist there)."""
    for byte in (int(b, 16) for b in raw.split()):
        if byte in LEGACY_PREFIXES or 0x40 <= byte <= 0x4F:
            continue
        return VEX_EVEX.get(byte)
    return None


def weak_functions(obj):
    names = set()
    for line in run(["nm", obj]).splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] == "W":
            names.add(fields[2])
    return names


def violations(obj, weak):
    """(symbol, instruction, reason) for each non-baseline instruction in
    the functions named in `weak` of `obj`."""
    found = []
    symbol = None
    for line in run(["objdump", "-d", "-w", obj]).splitlines():
        header = re.match(r"^[0-9a-f]+ <(.+)>:$", line)
        if header:
            symbol = header.group(1) if header.group(1) in weak else None
            continue
        if symbol is None:
            continue
        parts = line.split("\t")
        if len(parts) < 3 or not re.match(r"^\s*[0-9a-f]+:$", parts[0]):
            continue
        raw, text = parts[1], parts[2].strip()
        mnemonic = text.split()[0] if text else ""
        reason = encoding(raw)
        if reason is None and WIDE_REGISTER.search(text):
            reason = "wide register"
        if reason is None and NON_BASELINE.fullmatch(mnemonic):
            reason = "non-baseline mnemonic"
        if reason is not None:
            found.append((symbol, text, reason))
    return found


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().split("\n\n")[1].strip())
    objects = sorted(
        os.path.join(d, f) for d, _, files in os.walk(sys.argv[1])
        for f in files if re.fullmatch(r"kernels_\w+\.cpp\.o", f))
    if not objects:
        sys.exit("error: no kernels_*.cpp.o under %s" % sys.argv[1])
    failed = False
    for obj in objects:
        weak = weak_functions(obj)
        found = violations(obj, weak)
        print("%s: %d weak functions, %d non-baseline instructions"
              % (obj, len(weak), len(found)))
        for symbol, text, reason in found[:20]:
            print("  %s: %s (%s)" % (symbol, text, reason))
        failed |= bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

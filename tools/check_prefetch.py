#!/usr/bin/env python3
"""Check that the model checker's seen-set prefetch reaches the machine code.

    tools/check_prefetch.py LIBRARY [--objdump PATH]

Disassembles LIBRARY (the wfd_mc static library) and counts prefetch
instructions in the functions generated for
run_check<wfd::mc::ReductionModel>, its expand lambda included. The engine
prefetches each successor's seen-set line a state ahead of its insert; GCC
deletes a prefetch that sits alone in a void helper (it marks the helper
pure), so a build can compile clean and issue none. Exit 0 if at least one
prefetch is found, 1 if none is (or if no run_check<ReductionModel> code is
found at all), and 77 (skipped) if objdump is missing or LIBRARY is not
x86-64 code.
"""
import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77
FUNCTION = "run_check<wfd::mc::ReductionModel>"
HEADER = re.compile(r"^[0-9a-f]+ <(.*)>:$")


def objdump(tool, *args):
    return subprocess.run([tool, *args], check=True, capture_output=True,
                          text=True).stdout


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("library")
    parser.add_argument("--objdump", default="objdump")
    args = parser.parse_args(argv[1:])

    tool = shutil.which(args.objdump) if args.objdump else None
    if tool is None:
        print(f"check_prefetch: SKIP, no objdump ({args.objdump!r})")
        return SKIP
    if "x86-64" not in objdump(tool, "-f", args.library):
        print(f"check_prefetch: SKIP, {args.library} is not x86-64 code")
        return SKIP

    functions = 0
    prefetches = 0
    inside = False
    for line in objdump(tool, "-d", "-C", "--no-show-raw-insn",
                        args.library).splitlines():
        header = HEADER.match(line)
        if header:
            inside = FUNCTION in header.group(1)
            if inside:
                functions += 1
            continue
        fields = line.split("\t")
        if inside and len(fields) > 1 and fields[1].startswith("prefetch"):
            prefetches += 1

    print(f"check_prefetch: {prefetches} prefetch instruction(s) in "
          f"{functions} function(s) of {FUNCTION}")
    if functions == 0:
        print(f"FAIL no code generated for {FUNCTION} in {args.library}")
        return 1
    if prefetches == 0:
        print("FAIL the expand loop issues no seen-set prefetch")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

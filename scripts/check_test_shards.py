#!/usr/bin/env python3
"""Checks that the gtest shards of sprof_tests ran every case exactly once.

ctest runs the suite as N shards (tests/CMakeLists.txt), each writing its
cases to <shard-dir>/shard<K>.xml. This compares the union of those files
with the binary's own case list (`--gtest_list_tests`, which ignores the
sharding variables). A case missing from every shard, or run by two, fails.
When a shard's file is missing or older than the binary (a shard that has
not run since the last build), the check is skipped with exit code 77.

Usage: check_test_shards.py /path/to/sprof_tests SHARD_DIR NUM_SHARDS
"""
import collections
import os
import subprocess
import sys
import xml.etree.ElementTree as ET


def listed_cases(binary):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GTEST_")}
    out = subprocess.run([binary, "--gtest_list_tests"], env=env,
                         check=True, capture_output=True, text=True).stdout
    cases, suite = [], None
    for line in out.splitlines():
        if not line.strip():
            continue
        name = line.split("#", 1)[0].strip()
        if not line.startswith(" "):
            suite = name
        else:
            cases.append(suite + name)
    return cases


def main():
    binary, shard_dir, shards = sys.argv[1], sys.argv[2], int(sys.argv[3])
    built = os.path.getmtime(binary)
    ran = []
    for k in range(shards):
        path = os.path.join(shard_dir, "shard%d.xml" % k)
        if not os.path.exists(path) or os.path.getmtime(path) < built:
            print("skipped: shard %d has not run since %s was built" %
                  (k, binary))
            return 77
        for case in ET.parse(path).getroot().iter("testcase"):
            ran.append(case.get("classname") + "." + case.get("name"))
    listed = listed_cases(binary)
    failures = []
    missing = sorted(set(listed) - set(ran))
    extra = sorted(set(ran) - set(listed))
    twice = sorted(c for c, n in collections.Counter(ran).items() if n > 1)
    for what, names in (("in no shard", missing), ("not listed", extra),
                        ("in two shards", twice)):
        for name in names:
            failures.append("%s: %s" % (what, name))
    for line in failures:
        print("FAIL:", line)
    print("%d shards ran %d cases; the binary lists %d" %
          (shards, len(ran), len(listed)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

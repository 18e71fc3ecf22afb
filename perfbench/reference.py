"""Host-speed reference for the benchmark driver.

The driver starts this script once as a co-process and writes one line
per measurement; for each line the script runs a fixed piece of work
and answers with its duration in seconds. The work is CPython running
dictionary and list code: a large, branchy interpreter like the
simulator under test, but code the repository cannot change, so its
duration tracks only the host's speed (see README.md, "Noise").
The script exits when its input closes.
"""

import sys
import time


def interpreter():
    table = {}
    acc = 0
    x = 12345
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 4096
        bucket = table.get(key)
        if bucket is None:
            table[key] = [i, x]
        else:
            bucket.append(x)
            if len(bucket) > 8:
                acc += sum(bucket)
                table[key] = bucket[-2:]
    return acc


def main():
    for _ in sys.stdin:
        start = time.perf_counter()
        interpreter()
        sys.stdout.write("%.9f\n" % (time.perf_counter() - start))
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Run one `dckpca` CLI command in this process and print its peak RSS in KiB.

    python3 -m perfbench.rss_probe solve --data train.csv ... --out model.dk

VmHWM is read from /proc/self/status because getrusage's ru_maxrss carries
over the peak of the process that spawned this one across exec.
"""

import resource
import sys

from dckpca import cli


def peak_rss_kib() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    rc = cli.main(sys.argv[1:])
    print(peak_rss_kib())
    sys.exit(rc)

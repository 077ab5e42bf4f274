"""``python -m benchmarks.harness run [--workload NAME]… [--seed N] [--trace] [--out FILE]``."""

import sys

from benchmarks.harness.run import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

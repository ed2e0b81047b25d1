"""The ``cvgme`` command, also run as ``python -m cvgme``.

numpy sizes its BLAS/OpenMP thread pools from environment variables when it
loads, so ``--threads N`` takes effect only if those variables are set before
the first numpy import.  This entry imports no numpy: it reads ``--threads``
from the arguments, sets the variables, and then hands every argument to
:func:`cvgme.cli.main`, which parses and checks them all.
"""

import os
import sys

#: The variables that size the thread pools of OpenMP and of the BLAS
#: libraries numpy may be built against.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _threads_value(argv):
    """The last value given as ``--threads N`` or ``--threads=N``, or None.

    Like the parser, this takes a prefix of ``--threads`` (``--thr 2``) for
    the whole flag; a prefix the parser finds ambiguous fails there.
    """
    value = None
    for i, arg in enumerate(argv):
        flag, eq, inline = arg.partition("=")
        if len(flag) >= 3 and "--threads".startswith(flag):
            value = inline if eq else (argv[i + 1] if i + 1 < len(argv) else None)
    return value


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        threads = int(_threads_value(argv))
    except (TypeError, ValueError):
        threads = 0
    # a value that is not a positive count is left for cli.main to reject
    if threads >= 1:
        for name in THREAD_VARIABLES:
            os.environ[name] = str(threads)
    from cvgme.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())

"""Time one fresh interpreter's set-up for a workload.

Usage: ``python3 setup_probe.py SRC WORKLOAD REPORT_PATH``.  Measures
``import degamma`` plus the first call of each path the workload uses (which
fills lazy state such as the tanh-sinh node cache in ``quadrature``) and
prints the CPU seconds taken.  CPU time, not wall time: on a shared host the
wall clock also counts the time the processor spends on other tenants.
"""

import contextlib
import io
import sys
import time


def first_calls(degamma, workload: str, report_path: str) -> None:
    p = degamma.DegenerateParameter(0.3)
    if workload == "point-eval":
        degamma.degenerate_gamma(0.5 + 1j, p)
        degamma.degenerate_beta(0.5 + 1j, 0.7, p)
        degamma.degenerate_beta_classical(0.5 + 1j, 0.7, p)
        degamma.classical.log_gamma(-2.5 + 1j)
        degamma.pole_residue(degamma.PoleFamily.NON_POSITIVE, 1, p)
    elif workload == "integral-paths":
        degamma.direct_integral_gamma(0.5 + 1j, p)
        degamma.hankel_gamma(-0.5 + 1j, p)
        degamma.hankel_gamma_reflected(-0.5 + 1j, p)
    elif workload == "table-sweep":
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("jsonl", "csv"):
                degamma.cli.main(["table", "--lambda=0.5", "--s-re=-1:1:0.5",
                                  f"--format={fmt}"])
    elif workload == "verify-suite":
        with contextlib.redirect_stdout(io.StringIO()):
            degamma.cli.main(["verify", "--seed", "0", "--samples", "1",
                              "--report-path", report_path])
    else:
        raise SystemExit(f"setup_probe: unknown workload {workload!r}")


def main() -> None:
    src, workload, report_path = sys.argv[1:4]
    t0 = time.process_time()
    sys.path.insert(0, src)
    import degamma
    import degamma.cli

    first_calls(degamma, workload, report_path)
    print(repr(time.process_time() - t0))


if __name__ == "__main__":
    main()

"""Output checks for the benchmark's CLI ops.

Each check takes an op's exit code and standard output and returns ``None``
when the output is correct, or a one-line reason when it is not.  The
expected values in ``expected.json`` were recorded from the CLI at the
commit that introduced the benchmark; the exact commands promise
byte-identical JSON, so their whole output is compared by digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Tolerances of the same quantities in ``schurweyl verify``.
GAP_TOL = 1e-8
FIXED_POINT_TOL = 1e-7
# Agreement of the mid-cut maximum with the recorded value.
MID_CUT_TOL = 1e-8


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _check_digest(stdout: bytes, expected: dict) -> str | None:
    if digest(stdout) != expected["sha256"]:
        return "output differs from the recorded digest"
    return None


def _check_verify(payload: dict, expected: dict) -> str | None:
    names = [check["name"] for check in payload["checks"]]
    if names != expected["checks"]:
        return f"check names {names} differ from the recorded list"
    failed = [check["name"] for check in payload["checks"] if check["passed"] is not True]
    if failed or payload["passed"] is not True:
        return f"verify reported failed checks {failed}"
    return None


def _check_maximize(payload: dict, expected: dict) -> str | None:
    if payload["exact_bound"] != expected["exact_bound"]:
        return f"exact_bound {payload['exact_bound']!r} != {expected['exact_bound']!r}"
    if not payload["gap"] <= GAP_TOL:
        return f"gap {payload['gap']} above {GAP_TOL}"
    if not payload["fixed_point_residual"] <= FIXED_POINT_TOL:
        return f"fixed_point_residual {payload['fixed_point_residual']} above {FIXED_POINT_TOL}"
    return None


def _check_maximize_mid_cut(payload: dict, expected: dict) -> str | None:
    # The exact bound covers only the cut N-1, so the gap says nothing here.
    if payload["exact_bound"] != expected["exact_bound"]:
        return f"exact_bound {payload['exact_bound']!r} != {expected['exact_bound']!r}"
    value = payload["best_lambda1_sq"]
    if not 0.0 <= value <= 1.0:
        return f"best_lambda1_sq {value} outside [0, 1]"
    if not math.isclose(value, expected["best_lambda1_sq"], rel_tol=0.0, abs_tol=MID_CUT_TOL):
        return f"best_lambda1_sq {value} differs from {expected['best_lambda1_sq']} by more than {MID_CUT_TOL}"
    return None


_PAYLOAD_CHECKS = {
    "verify": _check_verify,
    "maximize": _check_maximize,
    "maximize-mid-cut": _check_maximize_mid_cut,
}
KINDS = ("digest", *_PAYLOAD_CHECKS)


def check_output(kind: str, returncode: int, stdout: bytes, expected: dict) -> str | None:
    """Reason the op's result is wrong, or ``None`` when it is correct."""
    if returncode != 0:
        return f"exit code {returncode}"
    if kind == "digest":
        return _check_digest(stdout, expected)
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        if payload["schema"] != "1":
            return f"schema {payload['schema']!r} is not '1'"
        return _PAYLOAD_CHECKS[kind](payload, expected)
    except (KeyError, TypeError) as exc:
        return f"malformed payload: {exc!r}"

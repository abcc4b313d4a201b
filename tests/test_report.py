"""Report serialization: deterministic JSON lines and CSV."""

import json

import numpy as np

from tricomi import VerificationReport, reports_to_csv, reports_to_jsonl


def test_numpy_bool_passed_renders_as_boolean():
    rep = VerificationReport("star_shaped", np.float64(-0.5), 10, np.float64(-1e-16),
                             -0.25, passed=np.bool_(True))
    assert reports_to_csv([rep]).splitlines()[1].endswith(",true")
    assert json.loads(reports_to_jsonl([rep]))["passed"] is True

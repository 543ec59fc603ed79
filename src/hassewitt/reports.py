"""Structured pass/fail records for the verification suites."""

from __future__ import annotations

import time


class VerificationReport:
    """Outcome of checking one named statement, with the witnesses examined."""

    def __init__(self, statement, passed, witnesses=None, seconds=0.0):
        self.statement = statement
        self.passed = passed
        self.witnesses = {} if witnesses is None else witnesses
        self.seconds = seconds

    def to_dict(self):
        return {
            "statement": self.statement,
            "passed": self.passed,
            "witnesses": self.witnesses,
            "seconds": round(self.seconds, 6),
        }


def timed(check, *args, **kwargs):
    """Run ``check`` and stamp its report with the seconds it took: the one
    place a report is timed."""
    start = time.monotonic()
    report = check(*args, **kwargs)
    report.seconds = time.monotonic() - start
    return report


class Text:
    """A string as an iterator of its pieces, which cli._dump_json writes as
    they come, never joined: a Text can be written once."""

    def __init__(self, pieces):
        self.pieces = iter(pieces)

"""Shared verification-report record and its JSON / text serializations.

Every verifier in the package returns one (or a list of) VerificationReport;
the record is deterministic: parameters are emitted with sorted keys and the
witness carries the first offending index tuple plus a rendered residual.
``first_failure`` makes the record of every check, and every check lives in
the library: the witness is the first failing case, whose residual is
either a polynomial (rendered) or a witness text such as "normal forms
differ; e.g. ...".  The CLI only combines finished records: its two
composite records, the negative control of the phi equation and the sl(2)
records, are made by hand from the records of their parts.
"""

from __future__ import annotations

import json


class VerificationReport:
    def __init__(self, check: str, params: dict, status: str, witness: dict | None):
        # witness: {"indices": [...], "residual": str}, None when the check passed
        self.check, self.params, self.status, self.witness = check, params, status, witness

    def __eq__(self, other):
        if other.__class__ is not VerificationReport:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return f"VerificationReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "status": self.status,
            "witness": None
            if self.witness is None
            else {
                "indices": list(self.witness["indices"]),
                "residual": self.witness["residual"],
            },
        }

    def to_text(self) -> str:
        params = " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        line = f"{self.status.upper():4s} {self.check}"
        if params:
            line += f" [{params}]"
        if self.witness is not None:
            line += f" witness={tuple(self.witness['indices'])} residual={self.witness['residual']}"
        return line


def passed(check: str, **params) -> VerificationReport:
    return VerificationReport(check, params, "pass", None)


def failed(check: str, indices, residual: str, **params) -> VerificationReport:
    return VerificationReport(
        check, params, "fail", {"indices": list(indices), "residual": residual}
    )


def first_failure(check: str, cases, params: dict) -> VerificationReport:
    """The failed record of the first failing case of ``cases``, an iterable
    of (indices, residual) pairs in the check's own order; the passed record
    if there is none.  A residual is a LaurentPoly, which fails when nonzero
    and is rendered, or a witness text, which fails when not empty and is
    used as it is.  ``params`` is read only when the record is made, so a
    check may count into it as it yields."""
    for indices, residual in cases:
        if residual:
            return failed(check, indices, residual if isinstance(residual, str)
                          else residual.render(), **params)
    return passed(check, **params)


def emit_report(records: list[VerificationReport], fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in records], indent=2) + "\n"
    if fmt == "text":
        return "".join(r.to_text() + "\n" for r in records)
    raise ValueError(f"unknown report format: {fmt}")


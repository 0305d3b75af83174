"""Finding record shared by the rule and check passes."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Finding:
    path: str        # repo-relative path
    line: int
    check: str       # "A1".."A5", "R1".."R6"
    rule: str        # finer-grained rule id, e.g. "A1.range-for"
    message: str
    function: str = ""   # enclosing function (baseline fingerprint stability)
    symbol: str = ""     # offending variable/container (fingerprint)

    def fingerprint(self) -> str:
        """Stable identity for the baseline: deliberately excludes the line
        number so unrelated edits above a finding don't churn the file."""
        return f"{self.path}::{self.check}::{self.function}::{self.symbol}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.check} {self.message}"

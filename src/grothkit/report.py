"""Structured pass/fail reports shared by every verifier in the package."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One verified law: a name, a verdict, and a witness when refuted."""

    name: str
    passed: bool
    counterexample: str | None = None

    def describe(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        tail = "" if self.counterexample is None else f" -- {self.counterexample}"
        return f"[{mark}] {self.name}{tail}"


@dataclass
class Report:
    """A bundle of checks about one subject, and the witnesses that back its verdict.

    Checks are added through `ok`, `fail` and `record`, which keep the count
    of failed checks that `passed` reads.
    """

    title: str
    checks: list[Check] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._failures = sum(not c.passed for c in self.checks) if self.checks else 0

    def ok(self, name: str) -> None:
        self.checks.append(Check(name, True))

    def fail(self, name: str, counterexample: str) -> None:
        self.checks.append(Check(name, False, counterexample))
        self._failures += 1

    def record(self, name: str, counterexample: str | None) -> None:
        """Pass when `counterexample` is None, fail with it otherwise."""
        if counterexample is None:
            self.ok(name)
        else:
            self.fail(name, counterexample)

    @property
    def passed(self) -> bool:
        return not self._failures

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def counterexamples(self) -> list[str]:
        return [c.counterexample for c in self.checks if c.counterexample is not None]

    def first_failure(self) -> Check | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def summary(self) -> str | None:
        """The first failed check as "name: counterexample", or None when all passed."""
        bad = self.first_failure()
        return None if bad is None else f"{bad.name}: {bad.counterexample}"

    def describe(self) -> str:
        lines = [f"{self.title}: {self.verdict}"]
        lines += ["  " + c.describe() for c in self.checks]
        lines += [f"  witness: {w}" for w in self.witnesses]
        return "\n".join(lines)


class ValidationError(Exception):
    """Raised when raw tables violate the laws of the structure they claim to be."""

    def __init__(self, report: Report):
        super().__init__(report.describe())
        self.report = report


class UsageError(ValueError):
    """Raised when arguments that are each valid do not fit together, e.g. a functor
    that does not land in the base it is applied to, or when a named file cannot be
    read or written.  The CLI exits 2 on it."""

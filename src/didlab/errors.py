"""Single error type with stable machine-readable codes.

Every failure the library raises deliberately goes through LabError so the
CLI can map it to an exit code and callers can branch on ``code`` instead of
parsing messages.
"""

from __future__ import annotations

# Codes raised by the library.  Kept in one tuple so tests can assert
# nobody invents an undocumented code.
ERROR_CODES = (
    "state-not-in-support",
    "support-too-large",
    "empty-event",
    "wrong-scenario",
    "invalid-scenario",
    "latent-required",
    "empty-cell",
    "not-sharp-design",
    "no-treated",
    "empty-stratum",
    "no-switchers",
    "undefined-ratio",
    "non-finite",
    "parse-error",
    "schema-error",
    "io-error",
)


class LabError(Exception):
    """Error with a stable code, a human message, and an optional path.

    ``path`` is a JSON-pointer-ish location for config errors ("/types/0/prob")
    or a filesystem path for I/O errors; empty otherwise.
    """

    def __init__(self, code: str, message: str, path: str = ""):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code: {code!r}")
        self.code = code
        self.path = path
        super().__init__(f"[{code}] {message}" + (f" (at {path})" if path else ""))

    @property
    def message(self) -> str:
        return self.args[0]

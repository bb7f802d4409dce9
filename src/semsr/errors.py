"""Exception hierarchy shared across the package.

DataError covers bad inputs (files, schemas, preconditions) and maps to
CLI exit code 2; the remaining errors are computation failures (exit 1).
"""


class SemsrError(Exception):
    pass


class DataError(SemsrError):
    """Malformed or missing input data, or a violated precondition."""


class NumericError(SemsrError):
    """Non-finite value in a computation that must stay finite."""


class GenerationError(SemsrError):
    """Text-generation endpoint failed, timed out, or returned nothing."""


def check_values(rules: dict, **values) -> None:
    """Check each value against its rule in `rules`, {name: (test, wanted)},
    the one statement of the rule that a module owns and `config` looks up;
    the first that fails is the DataError "<name> must be <wanted>, got <value!r>"."""
    for name, value in values.items():
        try:
            ok = rules[name][0](value)
        except (TypeError, ValueError, OverflowError):  # a value its test cannot read fails it
            ok = False
        if not ok:
            raise DataError(f"{name} must be {rules[name][1]}, got {value!r}")

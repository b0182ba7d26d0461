"""Exception types shared across the package."""


class ModelEvalError(Exception):
    """A model expression could not be evaluated (out-of-domain access, bad kind).

    Distinct from a contract violation: the checking engine converts it into a
    violation of kind ``model_eval_error`` attributed to the clause being
    evaluated.
    """


class SpecError(Exception):
    """A specification binding is ill-formed (unknown query in a modify clause,
    duplicate clause names, bad parameter descriptor). Raised when the spec
    is built."""


class ConfigError(Exception):
    """Bad harness or CLI configuration (unknown class, missing budget, ...)."""

"""Domain-specific exceptions, one for each of exit codes 2-5, and their table."""


class SizeCapError(RuntimeError):
    """Densifying or enumerating a tensor would exceed the configured size cap."""


class ConfigError(ValueError):
    """An experiment configuration file is missing or inconsistent."""


class BudgetError(RuntimeError):
    """A rank cap or evaluation budget was exhausted before the target accuracy."""


class EllipticityError(ValueError):
    """A diffusion coefficient is not strictly positive where it must be."""


class NumericalError(ArithmeticError):
    """A singular pivot block, a non-finite value or a failed factorization."""


# errors that end a build with partial outputs
ABORTS = (BudgetError, EllipticityError, NumericalError)

# cli's exit code and stderr prefix per class; any other exception is internal
EXIT_CODES = {ConfigError: (2, "config error"), BudgetError: (3, "budget abort"),
              EllipticityError: (4, "ellipticity failure"),
              NumericalError: (5, "numerical failure"), Exception: (1, "internal error")}

"""Domain-specific exceptions shared across the package."""


class SizeCapError(RuntimeError):
    """Densifying or enumerating a tensor would exceed the configured size cap."""


class BudgetError(RuntimeError):
    """A rank cap or evaluation budget was exhausted before the target accuracy."""


class PivotError(RuntimeError):
    """No acceptably conditioned pivot could be found during cross approximation."""


class EllipticityError(ValueError):
    """A diffusion coefficient is not strictly positive where it must be."""


class ConfigError(ValueError):
    """An experiment configuration file is missing or inconsistent."""


# errors that end a build with partial outputs; cli.EXIT_CODES gives BudgetError
# exit 3, EllipticityError 4, and PivotError and ArithmeticError share 5
ABORTS = (BudgetError, EllipticityError, PivotError, ArithmeticError)

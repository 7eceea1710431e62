"""Built-in repro-lint checkers.

Importing this package registers every rule module; adding a checker
means writing a module here and importing it below.
"""

from . import determinism  # noqa: F401
from . import effects  # noqa: F401
from . import float_equality  # noqa: F401
from . import ordering  # noqa: F401
from . import seed_lineage  # noqa: F401
from . import twin_contracts  # noqa: F401
from . import units_discipline  # noqa: F401

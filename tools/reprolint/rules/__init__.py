"""The reprolint rule battery.

Importing this package registers every rule group with the core registry.
To add a rule: drop a module here, decorate its check function with
``@rule("group-name", {"CODE": "description"})``, and import it below.
"""

from tools.reprolint.rules import (
    deprecation,
    determinism,
    docs,
    fingerprint,
    hotpath,
    order,
)

"""planlab: a propositional plan-space planning laboratory.

Five interchangeable plan-extension generators (total-order, unambiguous
partial-order, their conditional-effect variants, and a deferred-ordering
modal-truth planner) under pluggable search strategies, with exhaustive
tree enumeration and machine-checked correspondence between the
total-order and partial-order search spaces.
"""

__version__ = "0.1.0"

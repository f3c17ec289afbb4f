"""Moment, entropic-moment and Fisher-information functionals of
d-dimensional radial densities, with the full family of verified
uncertainty-relation bounds built on them.  Each name is imported from
the module that defines it, such as uncrel.constants or uncrel.inequalities."""

__version__ = "0.1.0"

"""The ids of the paper-claims table, in its order.

:data:`repro.analysis.figures.CLAIMS` holds the rows and the function
computing each; their ids are listed here too, in a module that imports
nothing, so that ``repro --help`` and ``repro claims --help`` quote them
without loading the models a row runs.  A test holds the two in step.
"""

__all__ = ["CLAIM_IDS"]

CLAIM_IDS = (
    "table-1",
    "table-2",
    "fig3-synthetic-no_table",
    "fig3-synthetic-static",
    "fig3-synthetic-dynamic",
    "fig3-synthetic-gzip",
    "fig3-dns-no_table",
    "fig3-dns-dynamic",
    "fig3-dns-gzip",
    "learning-delay",
    "figure-4",
    "figure-5",
    "section-5",
)

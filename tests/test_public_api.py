import gldof

# public names deleted with no caller left; their behaviour is checked on
# the solver's own matrices (test_solver) and through `risk.criteria`,
# `DofReport.radius` replaces `coordinate_radius` and `support_radius`, and
# the margins of `transition_proximity` are computed by the solver's finish
DELETED = ("DegenerateBlockError", "normalize_blocks", "delta_P_matrix",
           "sure", "gcv", "cp", "aic", "coordinate_radius", "support_radius",
           "transition_proximity")


def test_public_api():
    assert len(set(gldof.__all__)) == len(gldof.__all__)
    for name in gldof.__all__:
        assert getattr(gldof, name) is not None, name
    for name in DELETED:
        assert name not in gldof.__all__ and not hasattr(gldof, name), name

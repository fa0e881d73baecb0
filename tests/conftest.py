import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--stretch",
        action="store_true",
        default=False,
        help=(
            "run the long tests marked stretch: w'(16843^2), w(10^6), rel to 6000, "
            "W(601), the wpoly suite to 307, pairs to p = 69239, new-conjecture to "
            "q = 10^8 and to p = q = 10^5, jones and mcintosh at n = 2 * 1000003, "
            "pairs at level 2 for p = 1000003"
        ),
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--stretch"):
        return
    skip = pytest.mark.skip(reason="stretch check; enable with --stretch")
    for item in items:
        if item.get_closest_marker("stretch"):  # the mark, not a test id that reads "stretch"
            item.add_marker(skip)

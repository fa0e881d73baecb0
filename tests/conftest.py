import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--stretch",
        action="store_true",
        default=False,
        help=(
            "run the long tests marked stretch: w'(16843^2), w(10^6), rel to 6000, "
            "W(601), pairs to p = 69239, new-conjecture to q = 10^8"
        ),
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--stretch"):
        return
    skip = pytest.mark.skip(reason="stretch check; enable with --stretch")
    for item in items:
        if item.get_closest_marker("stretch"):  # the mark, not a test id that reads "stretch"
            item.add_marker(skip)

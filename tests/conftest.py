import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--stretch",
        action="store_true",
        default=False,
        help="run long stretch checks (third published pair, w'(16843^2))",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--stretch"):
        return
    skip = pytest.mark.skip(reason="stretch check; enable with --stretch")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)

"""jkbench's self-tests: timing-free checks of the instrument itself."""

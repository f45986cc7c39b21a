"""Room temperature modeling, robust regulator synthesis, and simulation."""

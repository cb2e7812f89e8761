"""Test subpackage (unique import names for duplicate basenames)."""

"""Full routing flows: the stitch-aware framework and its baseline.

The implementation lives in :mod:`repro.core.flow`; the stable import
path for the flow classes is :mod:`repro.api`.
"""

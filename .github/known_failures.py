"""Pass only when exactly the documented acceptance failures fail.

Usage: python .github/known_failures.py tier1.xml (a pytest --junitxml file).
Criteria 5 and 6 state targets the implementation does not reach (README,
Tests). Any other failing or erroring test fails the check, and so does
either of those two passing, so that README is updated with it.
"""
import sys
import xml.etree.ElementTree as ET

KNOWN = {"test_criterion_5_nonregular_mle_recovery",
         "test_criterion_6_good_set_concentration"}

cases = list(ET.parse(sys.argv[1]).getroot().iter("testcase"))
failed = {c.get("name") for c in cases
          if c.find("failure") is not None or c.find("error") is not None}
print(f"{len(cases)} tests, failing: {sorted(failed)}")
if not cases or failed != KNOWN:
    print(f"expected exactly these to fail: {sorted(KNOWN)}", file=sys.stderr)
    sys.exit(1)

"""Drive the full propose-validate-reprompt loop with a scripted client.

The scripted client stands in for an LLM and replays canned responses, so
the demo is deterministic and runs offline.  The first response has a bad
orientation; the FEEDBACK policy sends the validator's verdict (stage,
reason, parts at fault, details) back and the second response fixes it.

Run:  python3 demos/05_pipeline.py
"""

import json

from craftkit.orchestrator import (
    POLICY_FEEDBACK,
    ScriptedClient,
    classify_failure,
    load_template,
    run_pipeline,
)

good = load_template("hammer")
doc = json.loads(good)
doc[1]["Orientation"] = [60, 120, 45]  # hallucinated dimension
bad = json.dumps(doc, indent=2)

client = ScriptedClient([
    "```json\n" + bad + "\n```",
    "```json\n" + good + "\n```",
])

result = run_pipeline("hammer", client, policy=POLICY_FEEDBACK)

print("status:        ", result.status)
print("llm calls:     ", result.llm_calls)
print("classification:", classify_failure(result.failure_stage))
for i, attempt in enumerate(result.attempts, 1):
    verdict = attempt.verdict
    print(f"attempt {i}: {verdict.stage}, reason {verdict.reason}, "
          f"parts {list(verdict.parts)}")
if result.outcome is not None:
    print("functional test:", result.outcome.test,
          "success" if result.outcome.success else "failed")

print("\nsecond prompt contained the validator's verdict:",
      "previous plan failed" in client.prompts[1])

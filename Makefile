# Development targets. `make check` is the CI gate: formatting, vet, and
# the full test suite under the race detector (the analysis driver is
# parallel by default, so every test doubles as a race test).

GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet race fmt check quality-gate serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Fail fast on formatting drift: list the offending files and exit nonzero.
fmt:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

check: fmt vet race

# Prediction-quality gate: rewrite BENCH_quality.json and fail if VRP's
# mean absolute probability error (weighted or unweighted), hit rate,
# certain fraction, ⊥ fraction or stale-certain count is worse than the
# committed baseline by more than its bound on any suite (DESIGN.md §3.12).
quality-gate:
	$(GO) run ./cmd/vrpbench -quality -gate

# Run the analysis server (README "Running the server").
serve:
	$(GO) run ./cmd/vrpd

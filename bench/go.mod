// The benchmark is a module of its own so the root module's
// `go build ./... && go test ./...` neither builds nor runs it; the
// replace lets it import the engine's internal packages (the import
// path keeps the repro/ prefix the internal rule checks).
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../

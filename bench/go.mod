// The benchmark is a module of its own so the root module's build and tests
// do not depend on it; the cn/ path prefix is what lets it import the
// runtime's internal packages through the replace below.
module cn/bench

go 1.22

require cn v0.0.0

replace cn => ../

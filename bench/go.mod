module outcore/bench

go 1.22

require outcore v0.0.0

replace outcore => ../

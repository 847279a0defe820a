module github.com/dsrhaslab/sdscale/bench

go 1.22

require github.com/dsrhaslab/sdscale v0.0.0

replace github.com/dsrhaslab/sdscale => ../

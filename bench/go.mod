module srmcoll/bench

go 1.22

require srmcoll v0.0.0

replace srmcoll => ../

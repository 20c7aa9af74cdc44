module spacejmp/bench

go 1.24

require spacejmp v0.0.0

replace spacejmp => ../
